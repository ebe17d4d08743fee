"""Golden equivalence suite for the population-batched evaluation path.

The batched pipeline (:class:`repro.cpu.machine.BatchedMachine`,
:class:`repro.evaluation.backends.BatchedBackend`) promises *bitwise*
identical per-individual observables to the serial path — not merely
statistically equivalent.  These tests enforce that promise across
microarchitecture presets (in-order and out-of-order), steady-state
detection on and off, cache-modelled machines (which take the batched
path's serial fallback), repeated measurements, noisy environments,
and ragged generations where screen failures and evaluation-cache hits
interleave with the batch.
"""

import random

import numpy as np
import pytest

from repro.core.config import RunConfig, parse_config_file
from repro.core.engine import GeneticEngine
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import BatchedMachine, SimulatedMachine
from repro.cpu.target import SimulatedTarget
from repro.evaluation import EvaluationCache
from repro.evaluation.backends import (AutoSelectBackend, BatchedBackend,
                                       SerialBackend, supports_batching)
from repro.evaluation.pipeline import EvaluationPipeline, noise_key
from repro.fitness.default_fitness import DefaultFitness
from repro.measurement.oscilloscope import OscilloscopeMeasurement
from repro.measurement.power import PowerMeasurement
from repro.staticcheck.screen import StaticScreen

CONFIG = "configs/arm_power/config.xml"

#: In-order (cortex_a7) and out-of-order presets, per the golden matrix.
PRESETS = ("cortex_a15", "cortex_a7", "xgene2", "cortex_a57")


@pytest.fixture(scope="module")
def config() -> RunConfig:
    return parse_config_file(CONFIG)


def _programs(machine: SimulatedMachine, config: RunConfig, count: int,
              seed: int = 42):
    template = Template(config.template_text)
    rng = random.Random(seed)
    programs = []
    for uid in range(count):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        source = template.instantiate(individual.render_body())
        programs.append(machine.assembler.assemble(source,
                                                   name=f"g{uid}.s"))
    return programs


def _assert_run_results_equal(serial, batched):
    assert serial.ipc == batched.ipc
    assert serial.core_power_w == batched.core_power_w
    assert serial.chip_power_w == batched.chip_power_w
    assert serial.power_samples_w == batched.power_samples_w
    assert serial.temperature_samples_c == batched.temperature_samples_c
    assert np.array_equal(serial.voltage.voltage, batched.voltage.voltage)
    assert serial.voltage.warmup_samples == batched.voltage.warmup_samples
    assert serial.crashed == batched.crashed
    assert serial.noc_power_w == batched.noc_power_w


class TestBatchedMachineGoldens:
    """run_batch vs machine.run, bit for bit."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("detection", [True, False],
                             ids=["detect", "full-sim"])
    def test_presets_and_detection(self, config, preset, detection):
        machine = SimulatedMachine(preset, sim_cycles=400,
                                   steady_state_detection=detection)
        programs = _programs(machine, config, 12)
        keys = [noise_key(3, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append(machine.run(program, duration_s=1.0,
                                      power_sample_count=3))
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys)
        for reference, rounds in zip(serial, batched):
            assert len(rounds) == 1
            _assert_run_results_equal(reference, rounds[0])

    def test_noisy_environment_and_repeats(self, config):
        machine = SimulatedMachine("cortex_a15", sim_cycles=400,
                                   environment="os")
        programs = _programs(machine, config, 8)
        keys = [noise_key(9, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append([machine.run(program, duration_s=1.0,
                                       power_sample_count=4)
                           for _ in range(3)])
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=4,
            noise_keys=keys, repeats=3)
        for reference_rounds, rounds in zip(serial, batched):
            assert len(rounds) == 3
            for reference, result in zip(reference_rounds, rounds):
                _assert_run_results_equal(reference, result)

    def test_cache_hierarchy_falls_back_bit_identically(self, config):
        def build():
            return SimulatedMachine("cortex_a15", sim_cycles=400,
                                    hierarchy=MemoryHierarchy())
        machine = build()
        programs = _programs(machine, config, 6)
        keys = [noise_key(5, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append(machine.run(program, duration_s=1.0,
                                      power_sample_count=3))
        replica = build()
        replica_programs = _programs(replica, config, 6)
        batched = BatchedMachine(replica).run_batch(
            replica_programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys)
        for reference, rounds in zip(serial, batched):
            _assert_run_results_equal(reference, rounds[0])
            assert rounds[0].cache is not None

    def test_ragged_steady_state_periods(self, config):
        """Mixed detected/undetected periods in one batch still match."""
        machine = SimulatedMachine("cortex_a15", sim_cycles=400)
        programs = _programs(machine, config, 16, seed=7)
        keys = [noise_key(11, p.name) for p in programs]
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys)
        periods = {rounds[0].trace.period_cycles for rounds in batched}
        assert len(periods) > 1, "fixture lost its ragged-period property"
        for key, program, rounds in zip(keys, programs, batched):
            machine.reseed(key)
            _assert_run_results_equal(
                machine.run(program, duration_s=1.0, power_sample_count=3),
                rounds[0])


def _build_pipeline(config, measurement_cls=PowerMeasurement,
                    screen=False, hierarchy=False, params=None):
    machine = SimulatedMachine(
        "cortex_a15", seed=config.ga.seed or 0, sim_cycles=400,
        hierarchy=MemoryHierarchy() if hierarchy else None)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = measurement_cls(
        target, dict(params or {"duration": "1", "samples": "3"}))
    return EvaluationPipeline(
        template=Template(config.template_text), measurement=measurement,
        fitness=DefaultFitness(),
        screen=StaticScreen.for_machine(machine) if screen else None,
        noise_seed=config.ga.seed or 0)


def _jobs(pipeline, config, count, seed=21, corrupt=()):
    rng = random.Random(seed)
    jobs = []
    for uid in range(count):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        source = pipeline.render(individual)
        if uid in corrupt:
            source = source.replace("#loop_code", "", 1) \
                .replace("\n", "\nnot_an_opcode zz\n", 1)
        jobs.append((individual, source))
    return jobs


class TestBatchedBackendGoldens:
    """BatchedBackend vs SerialBackend over the full pipeline."""

    @pytest.mark.parametrize("measurement_cls",
                             [PowerMeasurement, OscilloscopeMeasurement])
    def test_equivalence_with_screen_failures(self, config,
                                              measurement_cls):
        results = {}
        for name, backend in (("serial", SerialBackend()),
                              ("batched", BatchedBackend())):
            pipeline = _build_pipeline(config, measurement_cls,
                                       screen=True)
            jobs = _jobs(pipeline, config, 12, corrupt={3, 8})
            results[name] = backend.evaluate(pipeline, jobs)
        assert len(results["serial"]) == len(results["batched"]) == 12
        for serial, batched in zip(results["serial"], results["batched"]):
            assert serial == batched or (
                serial.uid == batched.uid
                and serial.measurements == batched.measurements
                and serial.fitness == batched.fitness
                and serial.screen_failed == batched.screen_failed
                and serial.compile_failed == batched.compile_failed)
        flagged = [r.uid for r in results["batched"] if r.screen_failed]
        assert flagged == [3, 8]

    def test_repeats_and_median_aggregate(self, config):
        params = {"duration": "1", "samples": "3", "repeats": "3",
                  "aggregate": "median"}
        serial_pipeline = _build_pipeline(config, params=params)
        batched_pipeline = _build_pipeline(config, params=params)
        jobs_serial = _jobs(serial_pipeline, config, 10)
        jobs_batched = _jobs(batched_pipeline, config, 10)
        serial = SerialBackend().evaluate(serial_pipeline, jobs_serial)
        batched = BatchedBackend().evaluate(batched_pipeline, jobs_batched)
        for left, right in zip(serial, batched):
            assert left.measurements == right.measurements
            assert left.fitness == right.fitness

    def test_cache_hits_interleaved_with_misses(self, config):
        """A generation that is part cache-replay, part fresh batch."""
        def run(backend):
            from repro.evaluation.evaluator import StagedEvaluator
            pipeline = _build_pipeline(config)
            cache = EvaluationCache("golden")
            evaluator = StagedEvaluator(pipeline, backend=backend,
                                        cache=cache)
            jobs = _jobs(pipeline, config, 8)

            class _Population(list):
                number = 0
            first = _Population(ind for ind, _ in jobs[:5])
            evaluator.evaluate_population(first)
            # Individuals stay unevaluated (the engine, not the
            # evaluator, attaches results), so re-running the full
            # population re-renders the first five and replays them
            # from the cache, interleaved with three fresh misses.
            everyone = _Population(ind for ind, _ in jobs)
            outcome = evaluator.evaluate_population(everyone)
            return outcome

        serial = run(SerialBackend())
        batched = run(BatchedBackend())
        assert serial.cache_hits == batched.cache_hits == 5
        assert [r.uid for r in serial.results] \
            == [r.uid for r in batched.results]
        for left, right in zip(serial.results, batched.results):
            assert left.measurements == right.measurements
            assert left.fitness == right.fitness
            assert left.cache_hit == right.cache_hit

    def test_non_batchable_pipeline_falls_back(self, config):
        pipeline = _build_pipeline(config)

        class Custom(PowerMeasurement):
            def measure(self, source_text, individual):
                return [1.0]
        custom = Custom.__new__(Custom)
        custom.__dict__.update(pipeline.measurement.__dict__)
        Custom.measure_from_result = \
            PowerMeasurement.__mro__[1].measure_from_result
        assert not custom.supports_batching()
        pipeline.measurement = custom
        assert not supports_batching(pipeline)
        jobs = _jobs(pipeline, config, 4)
        results = BatchedBackend().evaluate(pipeline, jobs)
        assert [r.measurements for r in results] == [[1.0]] * 4

    def test_auto_select_records_choice(self, config):
        backend = AutoSelectBackend(pool_workers=1)
        pipeline = _build_pipeline(config)
        small = _jobs(pipeline, config, 3)
        backend.evaluate(pipeline, small)
        assert backend.last_choice == "serial"
        assert "3 jobs" in backend.last_reason
        jobs = _jobs(pipeline, config, 12)
        for individual, _ in jobs:
            individual.uid += 100
        backend.evaluate(pipeline, jobs)
        assert backend.last_choice == "batched"
        assert backend.shares_state


class TestEngineBackendStats:
    def test_stats_record_backend_choice(self, config, tmp_path):
        import copy
        run_config = copy.deepcopy(config)
        run_config.ga.population_size = 10
        run_config.ga.generations = 2
        machine = SimulatedMachine("cortex_a15",
                                   seed=run_config.ga.seed or 0,
                                   sim_cycles=400)
        target = SimulatedTarget(machine)
        target.connect()
        measurement = PowerMeasurement(target,
                                       {"duration": "1", "samples": "3"})
        engine = GeneticEngine(run_config, measurement, DefaultFitness(),
                               backend=AutoSelectBackend(pool_workers=1))
        history = engine.run(2)
        assert all(g.backend == "batched" for g in history.generations)
        assert all(g.backend_reason for g in history.generations)
