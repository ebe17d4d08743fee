"""Tests for one compile path per program and the noise-free run memo.

Serial evaluation does its deterministic work once per distinct
program: pruning scorers, the static screen and the measurement share
the Program that ``SimulatedMachine.compile`` caches (built through
the pipeline's one template splicer), and ``SimulatedMachine.run``
memoises the trace, power figures and PDN response per compiled
Program, cores and supply, redrawing only the measurement noise.
Every observable must stay bit-identical to a fresh machine's.
"""

import copy
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import parse_config_file
from repro.core.engine import GeneticEngine
from repro.core.events import RunRecorder
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import BatchedMachine, SimulatedMachine
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.target import SimulatedTarget
from repro.evaluation.backends import BatchedBackend, SerialBackend
from repro.evaluation.pipeline import EvaluationPipeline
from repro.fitness.default_fitness import DefaultFitness
from repro.isa.assembler import BaseAssembler
from repro.isa.splice import TemplateSplicer
from repro.measurement.power import PowerMeasurement
from repro.staticcheck.screen import StaticScreen
from repro.workloads import workload

from .test_pruning_golden import GOLDEN
from .test_pruning_golden import _run as _run_golden

CONFIG = "configs/arm_power/config.xml"
PRESET = "cortex_a15"
SIM_CYCLES = 400
LIBRARY = ("coremark", "fdct", "idle_spin", "linpack", "prime95")


@pytest.fixture(scope="module")
def config():
    return parse_config_file(CONFIG)


def _machine(**kwargs) -> SimulatedMachine:
    return SimulatedMachine(PRESET, environment="os", seed=5,
                            sim_cycles=SIM_CYCLES, **kwargs)


def _assert_runs_equal(left, right):
    assert left.program_name == right.program_name
    assert left.cores_used == right.cores_used
    assert left.duration_s == right.duration_s
    assert left.supply_v == right.supply_v
    assert left.ipc == right.ipc
    assert left.core_power_w == right.core_power_w
    assert left.chip_power_w == right.chip_power_w
    assert left.noc_power_w == right.noc_power_w
    assert left.power_samples_w == right.power_samples_w
    assert left.temperature_samples_c == right.temperature_samples_c
    assert left.crashed == right.crashed
    assert left.cache == right.cache
    assert np.array_equal(left.voltage.voltage, right.voltage.voltage)
    assert left.voltage.supply == right.voltage.supply
    assert left.voltage.warmup_samples == right.voltage.warmup_samples
    for name in ("cycles", "instructions_issued", "loop_iterations",
                 "group_counts", "prefix_cycles", "period_cycles"):
        assert getattr(left.trace, name) == getattr(right.trace, name)
    for name in ("issue_slots", "issue_offsets", "occupancy_counts",
                 "slot_counts"):
        assert np.array_equal(getattr(left.trace, name),
                              getattr(right.trace, name))


_NOISE_KEY = st.integers(min_value=0, max_value=2 ** 32)
_RUN_ARGUMENTS = (
    st.integers(min_value=1, max_value=2),    # cores
    st.sampled_from((None, 0.95, 1.05)),      # supply, x nominal
    st.sampled_from((0.5, 1.0, 5.0)),         # duration_s
    st.integers(min_value=1, max_value=4),    # power_sample_count
)
#: ``run(program)`` after ``reseed(key)``.
_RUN_STEP = st.tuples(st.just("run"), *_RUN_ARGUMENTS,
                      st.sampled_from(LIBRARY), _NOISE_KEY)
#: ``run_batch`` over rows of (library program, noise key): a program
#: drawn twice is the same Program object, so rows repeat.
_BATCH_STEP = st.tuples(
    st.just("batch"), *_RUN_ARGUMENTS,
    st.lists(st.tuples(st.sampled_from(LIBRARY), _NOISE_KEY),
             min_size=1, max_size=6),
    st.integers(min_value=1, max_value=3))    # repeats


class TestRunMemo:
    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(st.one_of(_RUN_STEP, _BATCH_STEP),
                          min_size=1, max_size=8),
           cap=st.integers(min_value=1, max_value=4),
           hierarchy=st.booleans())
    def test_memoised_run_equals_fresh_run(self, steps, cap, hierarchy):
        """Interleaved programs, repeated keys and LRU eviction (a cap
        of 1..4 entries over up to 10 distinct keys) never change an
        observable: each memoised run, and each row of a batch (rows
        sharing a Program are simulated once), equals a fresh
        machine's reseed plus ``run``."""
        def build():
            return _machine(hierarchy=MemoryHierarchy() if hierarchy
                            else None)

        memo_machine = build()
        memo_machine.RUN_MEMO_CAP = cap
        programs = {name: memo_machine.compile(workload(name).source,
                                               name=f"{name}.s")
                    for name in LIBRARY}
        nominal = memo_machine.arch.vdd_nominal

        def fresh_runs(name, key, repeats, kwargs):
            fresh_machine = build()
            fresh_machine.reseed(key)
            return [fresh_machine.run(programs[name], **kwargs)
                    for _ in range(repeats)]

        for kind, cores, supply, duration, samples, *step in steps:
            kwargs = dict(duration_s=duration, cores=cores,
                          power_sample_count=samples,
                          supply_v=None if supply is None
                          else supply * nominal)
            if kind == "run":
                name, key = step
                memo_machine.reseed(key)
                memoised = memo_machine.run(programs[name], **kwargs)
                [fresh] = fresh_runs(name, key, 1, kwargs)
                _assert_runs_equal(memoised, fresh)
            else:
                rows, repeats = step
                batched = BatchedMachine(memo_machine).run_batch(
                    [programs[name] for name, _ in rows],
                    noise_keys=[key for _, key in rows], repeats=repeats,
                    **kwargs)
                assert len(batched) == len(rows)
                for (name, key), rounds in zip(rows, batched):
                    expected = fresh_runs(name, key, repeats, kwargs)
                    assert len(rounds) == repeats
                    for left, right in zip(rounds, expected):
                        _assert_runs_equal(left, right)
            assert len(memo_machine._run_memo) <= cap

    def test_repeated_runs_simulate_once(self, monkeypatch):
        calls = _count_executes(monkeypatch)
        machine = _machine()
        program = machine.compile(workload("coremark").source)
        for _ in range(3):
            machine.run(program, duration_s=1.0)
        machine.run(program, duration_s=1.0, cores=2)
        assert sum(calls.values()) == 2

    def test_memo_is_bounded_lru(self, monkeypatch):
        calls = _count_executes(monkeypatch)
        machine = _machine()
        machine.RUN_MEMO_CAP = 2
        first, second, third = (
            machine.compile(workload(name).source, name=f"{name}.s")
            for name in ("coremark", "fdct", "linpack"))
        for program in (first, second, first, third):
            machine.run(program, duration_s=1.0)
        # ``second`` was the least recently used entry when ``third``
        # arrived, so it is evicted and simulates again; ``first``
        # stays memoised.
        assert len(machine._run_memo) == 2
        machine.run(first, duration_s=1.0)
        assert sum(calls.values()) == 3
        machine.run(second, duration_s=1.0)
        assert sum(calls.values()) == 4

    def test_equal_but_distinct_programs_do_not_share_entries(
            self, monkeypatch):
        calls = _count_executes(monkeypatch)
        machine = _machine()
        source = workload("coremark").source
        left = machine.assembler.assemble(source, name="a.s")
        right = machine.assembler.assemble(source, name="a.s")
        assert left == right and left is not right
        machine.run(left, duration_s=1.0)
        machine.run(right, duration_s=1.0)
        assert sum(calls.values()) == 2

    def test_hierarchy_machines_never_hit_the_memo(self, monkeypatch):
        calls = _count_executes(monkeypatch)
        memo_machine = _machine(hierarchy=MemoryHierarchy())
        program = memo_machine.compile(workload("streamcluster").source)
        for key in (1, 2, 1):
            memo_machine.reseed(key)
            memoised = memo_machine.run(program, duration_s=1.0)
            fresh_machine = _machine(hierarchy=MemoryHierarchy())
            fresh_machine.reseed(key)
            _assert_runs_equal(memoised,
                               fresh_machine.run(program, duration_s=1.0))
        assert not memo_machine._run_memo
        assert sum(calls.values()) == 6


def _count_executes(monkeypatch) -> Counter:
    """Count ``PipelineSimulator.execute`` calls per Program name."""
    calls: Counter = Counter()
    original = PipelineSimulator.execute

    def counting(self, program, *args, **kwargs):
        calls[program.name] += 1
        return original(self, program, *args, **kwargs)

    monkeypatch.setattr(PipelineSimulator, "execute", counting)
    return calls


def _pipeline(config, params, screen=True):
    machine = SimulatedMachine(PRESET, seed=config.ga.seed or 0,
                               sim_cycles=SIM_CYCLES)
    target = SimulatedTarget(machine)
    target.connect()
    return EvaluationPipeline(
        template=Template(config.template_text),
        measurement=PowerMeasurement(target, params),
        fitness=DefaultFitness(),
        screen=StaticScreen.for_machine(machine) if screen else None,
        noise_seed=config.ga.seed or 0)


def _jobs(pipeline, config, count, duplicates=()):
    """``count`` random individuals; each uid in ``duplicates`` reuses
    the body of the individual before it (an elite re-rendered)."""
    rng = random.Random(17)
    jobs = []
    for uid in range(count):
        if uid in duplicates:
            individual = copy.deepcopy(jobs[-1][0])
            individual.uid = uid
        else:
            individual = random_individual(
                config.library, config.ga.individual_size, rng, uid=uid)
        jobs.append((individual, pipeline.render(individual)))
    return jobs


class TestSharedCompilePath:
    def test_serial_repeats_match_batched_and_simulate_once(
            self, config, monkeypatch):
        params = {"duration": "1", "samples": "3", "repeats": "3"}
        duplicates = {2, 5}
        serial_pipeline = _pipeline(config, params)
        batched_pipeline = _pipeline(config, params)
        serial_jobs = _jobs(serial_pipeline, config, 8, duplicates)
        batched_jobs = _jobs(batched_pipeline, config, 8, duplicates)
        distinct = len({source for _, source in serial_jobs})
        assert distinct == 6

        calls = _count_executes(monkeypatch)
        serial = SerialBackend().evaluate(serial_pipeline, serial_jobs)
        assert sum(calls.values()) == distinct
        calls.clear()
        batched = BatchedBackend().evaluate(batched_pipeline, batched_jobs)
        # Re-rendered elites compile to the cached Program, and the
        # batch simulates each distinct Program once.
        assert sum(calls.values()) == distinct
        assert len(serial) == len(batched) == 8
        for left, right in zip(serial, batched):
            assert left.uid == right.uid
            assert left.measurements == right.measurements
            assert left.fitness == right.fitness
            # Both assemble each distinct source once (the serial
            # path's repeats re-read the cache; the batch compiles once).
            assert left.compile_cache_misses == right.compile_cache_misses

    def test_screen_and_measurement_share_one_program(self, config):
        pipeline = _pipeline(config, {"duration": "1", "samples": "3"})
        machine = pipeline.measurement.target.machine
        [(individual, source)] = _jobs(pipeline, config, 1)
        result = pipeline.evaluate(individual, source=source)
        # The screen compiles under the measurement's file name (one
        # miss); the measurement then hits that entry.
        assert (result.compile_cache_misses, result.compile_cache_hits) \
            == (1, 1)
        assert list(machine._compile_cache) \
            == [(pipeline.measurement.source_name, source)]
        assert pipeline.measurement.target.builder \
            == pipeline.splicer.compile

    def test_screen_diagnostics_keep_individual_file_name(self, config):
        pipeline = _pipeline(config, {"duration": "1", "samples": "3"})
        [(individual, source)] = _jobs(pipeline, config, 1)
        broken = source.replace("#loop_code", "", 1) \
            .replace("\n", "\nnot_an_opcode zz\n", 1)
        report = pipeline.run_screen(broken, individual)
        assert report.assembly_failed
        assert [d.location.file for d in report.diagnostics] \
            == [f"uid{individual.uid}.s"]

    def test_screen_gets_shared_compile_by_signature(self, config):
        class Passed:
            passed = True
            assembly_failed = False

        class TakesCompile:
            def __init__(self):
                self.programs = []

            def screen(self, source_text, individual, compile=None):
                self.programs.append(compile(source_text))
                return Passed()

        class CompilesItself:
            def screen(self, source_text, individual):
                return Passed()

        pipeline = _pipeline(config, {"duration": "1", "samples": "3"})
        [(individual, source)] = _jobs(pipeline, config, 1)
        pipeline.screen = TakesCompile()
        pipeline.run_screen(source, individual)
        assert pipeline.screen.programs == [pipeline.compile(source)]
        pipeline.screen = CompilesItself()
        assert pipeline.run_screen(source, individual).passed

    def test_batched_backend_holds_no_splicer(self):
        backend = BatchedBackend()
        assert not any(type(value).__name__ == "TemplateSplicer"
                       for value in vars(backend).values())

    def test_translating_targets_screen_the_translated_program(self, config):
        machine = SimulatedMachine(PRESET, sim_cycles=SIM_CYCLES)
        target = SimulatedTarget(machine, translator=lambda text: text)
        target.connect()
        pipeline = EvaluationPipeline(
            template=Template(config.template_text),
            measurement=PowerMeasurement(target, {"duration": "1"}),
            fitness=DefaultFitness(),
            screen=StaticScreen.for_machine(machine))
        assert pipeline.splicer is None
        assert target.builder is None
        [(individual, source)] = _jobs(pipeline, config, 1)
        result = pipeline.evaluate(individual, source=source)
        # No splicer, but the screen still compiles through the shared
        # path (the translated source, one miss) and the measurement
        # hits that entry.
        assert (result.compile_cache_misses, result.compile_cache_hits) \
            == (1, 1)

    @pytest.mark.serial_evaluation
    def test_generation_misses_count_distinct_sources_assembled(
            self, config):
        run_config = copy.deepcopy(config)
        run_config.ga.population_size = 10
        machine = SimulatedMachine(PRESET, seed=run_config.ga.seed or 0,
                                   sim_cycles=SIM_CYCLES)
        assembled = []
        compile_through = machine.compile

        def recording(source, name="stress.s", builder=None):
            def build(text, file_name):
                assembled.append(text)
                if builder is not None:
                    return builder(text, file_name)
                return machine.assembler.assemble(text, name=file_name)
            return compile_through(source, name=name, builder=build)

        machine.compile = recording
        target = SimulatedTarget(machine)
        target.connect()
        per_generation = []

        class Boundaries(RunRecorder):
            def on_generation_completed(self, event):
                per_generation.append(list(assembled))
                assembled.clear()

        engine = GeneticEngine(
            run_config,
            PowerMeasurement(target, {"duration": "1", "samples": "3"}),
            DefaultFitness(), recorder=Boundaries(),
            screen=StaticScreen.for_machine(machine), backend="serial")
        history = engine.run(3)
        assert len(per_generation) == len(history.generations) == 3
        for stats, sources in zip(history.generations, per_generation):
            assert stats.compile_cache_misses == len(set(sources)) \
                == len(sources)
            assert stats.compile_cache_misses > 0
            # Screen and measurement each look a measured source up:
            # the measurement's look-up is always a hit.
            assert stats.compile_cache_hits >= stats.measured
            assert stats.compile_cache_hits + stats.compile_cache_misses \
                == stats.screened + stats.measured

    @pytest.mark.serial_evaluation
    @pytest.mark.parametrize("case", ["static_rank(genetic)",
                                      "surrogate(genetic)"])
    def test_pruning_runs_build_each_source_once(self, case, monkeypatch):
        # The scorer prices the Program the run measures: a simulated
        # survivor is a compile-cache hit, never a second build.
        built = []
        inside = []
        splice = TemplateSplicer.compile
        assemble = BaseAssembler.assemble

        def splicing(splicer, source, name="stress.s"):
            built.append(source)
            inside.append(True)
            try:
                return splice(splicer, source, name)
            finally:
                inside.pop()

        def assembling(assembler, source, name="<source>"):
            if not inside:
                built.append(source)
            return assemble(assembler, source, name)

        monkeypatch.setattr(TemplateSplicer, "compile", splicing)
        monkeypatch.setattr(BaseAssembler, "assemble", assembling)
        golden = GOLDEN[case]
        _, history = _run_golden(golden["strategy"], golden["params"])
        assert any(g.surrogate["pruned"] for g in history.generations)
        twice = [source for source, count in Counter(built).items()
                 if count > 1]
        assert built and not twice, f"{len(twice)} sources built twice"
