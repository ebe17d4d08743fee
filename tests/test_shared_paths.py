"""One implementation per layer for the serial and batched paths.

Every executor backend takes a whole generation through one entry
point, ``evaluate``; the batched backend reuses the pipeline's own
failure, scoring and empty-measurement steps; and
``SimulatedMachine.run`` and ``BatchedMachine.run_batch`` derive power,
current and noise from the same helpers.  These tests pin what that
sharing must preserve: the in-band error stop point on every backend,
bit-identical machine results with one simulation and one energy trace
per program, and auto-selection's routing table.
"""

import pytest

from repro.core.config import parse_config_file
from repro.core.template import Template
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import BatchedMachine, SimulatedMachine
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.target import SimulatedTarget
from repro.evaluation.backends import (AutoSelectBackend, BatchedBackend,
                                       ProcessPoolBackend, SerialBackend,
                                       supports_batching)
from repro.evaluation.pipeline import (EmptyMeasurementError,
                                       EvaluationPipeline, noise_key)
from repro.fitness.default_fitness import DefaultFitness
from repro.measurement.power import PowerMeasurement
from repro.staticcheck.screen import StaticScreen

from .test_batched_golden import _jobs, _programs
from .test_run_memo import _assert_runs_equal

CONFIG = "configs/arm_power/config.xml"


@pytest.fixture(scope="module")
def config():
    return parse_config_file(CONFIG)


# ---------------------------------------------------------------------------
# in-band error stop point, batched path included
# ---------------------------------------------------------------------------

#: First uid whose aggregated measurement comes back empty.
FAIL_FROM = 7
#: Uids whose sources the static screen rejects (before and after).
CORRUPT = {3, 8, 15}
JOBS = 24


class _EmptyFrom(PowerMeasurement):
    """Batchable measurement whose aggregate is empty from FAIL_FROM on.

    With ``repeats`` above one the serial path aggregates through
    ``aggregate_rounds`` too, so every backend meets the same failure.
    """

    def aggregate_rounds(self, rounds, individual):
        if individual.uid >= FAIL_FROM:
            return []
        return super().aggregate_rounds(rounds, individual)


def _failing_pipeline(config):
    machine = SimulatedMachine("cortex_a15", seed=config.ga.seed or 0,
                               sim_cycles=1600)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = _EmptyFrom(target, {"duration": "1", "samples": "3",
                                      "repeats": "2"})
    return EvaluationPipeline(
        template=Template(config.template_text), measurement=measurement,
        fitness=DefaultFitness(),
        screen=StaticScreen.for_machine(machine),
        noise_seed=config.ga.seed or 0)


def _outcome(items):
    *results, error = items
    assert isinstance(error, EmptyMeasurementError)
    return ([(r.uid, r.measurements, r.fitness, r.screen_failed,
              r.compile_failed) for r in results], str(error))


def test_error_stop_point_identical_on_every_backend(config):
    outcomes = {}
    auto = AutoSelectBackend(2)
    backends = {"serial": SerialBackend(), "batched": BatchedBackend(),
                "pool": ProcessPoolBackend(2), "auto": auto}
    try:
        for name, backend in backends.items():
            pipeline = _failing_pipeline(config)
            assert supports_batching(pipeline)
            outcomes[name] = _outcome(backend.evaluate(
                pipeline, _jobs(pipeline, config, JOBS, corrupt=CORRUPT)))
    finally:
        for backend in backends.values():
            backend.close()
    # 24 jobs x 1600 cycles on two workers routes auto to the pool.
    assert auto.last_choice == "pool"
    results, message = outcomes["serial"]
    assert [uid for uid, *_ in results] == list(range(FAIL_FROM))
    assert [uid for uid, _, _, screened, _ in results if screened] == [3]
    assert f"uid={FAIL_FROM} in generation" in message
    for name, outcome in outcomes.items():
        assert outcome == outcomes["serial"], name


# ---------------------------------------------------------------------------
# the shared run builder
# ---------------------------------------------------------------------------

def _hierarchy_machine(hierarchy):
    return SimulatedMachine(
        "cortex_a15", environment="os", seed=3, sim_cycles=400,
        hierarchy=MemoryHierarchy() if hierarchy else None)


# ``run_batch`` runs the one scheduler once per distinct Program with
# or without a hierarchy, so both cases pin the same call count.
@pytest.mark.parametrize("hierarchy", [False, True])
def test_hierarchy_batch_simulates_once_per_program(config, monkeypatch,
                                                    hierarchy):
    reference = _hierarchy_machine(hierarchy)
    programs = _programs(reference, config, 4)
    keys = [noise_key(5, program.name) for program in programs]
    serial = []
    for key, program in zip(keys, programs):
        reference.reseed(key)
        serial.append([reference.run(program, duration_s=1.0, cores=2,
                                     power_sample_count=3)
                       for _ in range(3)])

    executions = []
    execute = PipelineSimulator.execute

    def counting(simulator, program, *args, **kwargs):
        executions.append(program)
        return execute(simulator, program, *args, **kwargs)

    monkeypatch.setattr(PipelineSimulator, "execute", counting)
    machine = _hierarchy_machine(hierarchy)
    batched = BatchedMachine(machine).run_batch(
        programs, duration_s=1.0, cores=2, power_sample_count=3,
        noise_keys=keys, repeats=3)
    assert executions == programs
    for reference_rounds, rounds in zip(serial, batched):
        assert len(rounds) == 3
        for left, right in zip(reference_rounds, rounds):
            _assert_runs_equal(left, right)
            assert (right.cache is not None) == hierarchy


@pytest.mark.parametrize("hierarchy", [False, True])
def test_serial_run_computes_one_energy_trace(config, hierarchy):
    machine = SimulatedMachine(
        "cortex_a15", sim_cycles=400,
        hierarchy=MemoryHierarchy() if hierarchy else None)
    rows = []
    energy_traces = machine.power.energy_traces_pj

    def counting(programs, traces):
        rows.append(len(programs))
        return energy_traces(programs, traces)

    machine.power.energy_traces_pj = counting
    simulations = []
    simulate = machine._simulate

    def counting_simulate(*args):
        simulations.append(args)
        return simulate(*args)

    machine._simulate = counting_simulate
    for program in _programs(machine, config, 3):
        machine.run(program, duration_s=1.0, power_sample_count=2)
        machine.run(program, duration_s=1.0, power_sample_count=2)
    # The run memo re-simulates nothing without a hierarchy.
    assert len(simulations) == (6 if hierarchy else 3)
    assert rows == [1] * len(simulations)


# ---------------------------------------------------------------------------
# auto-selection routing table
# ---------------------------------------------------------------------------

JOB_COUNTS = (3, 7, 8, 12, 24, 48, 64)

#: ``last_choice`` per job count, keyed (batchable, sim_cycles,
#: pool_workers); recorded before the evaluation paths were unified,
#: so the unification provably moved no routing decision.
ROUTES = {
    (True, 400, 1): "serial serial batched batched batched batched batched",
    (True, 400, 2): "serial serial batched batched batched batched batched",
    (True, 400, 4): "serial serial batched batched batched batched batched",
    (True, 1600, 1): "serial serial batched batched batched batched batched",
    (True, 1600, 2): "serial serial batched batched pool pool pool",
    (True, 1600, 4): "serial serial batched batched batched pool pool",
    (False, 400, 1): "serial serial serial serial serial serial serial",
    (False, 400, 2): "serial pool pool pool pool pool pool",
    (False, 400, 4): "serial serial pool pool pool pool pool",
    (False, 1600, 1): "serial serial serial serial serial serial serial",
    (False, 1600, 2): "serial pool pool pool pool pool pool",
    (False, 1600, 4): "serial serial pool pool pool pool pool",
}


class _Unbatchable:
    """A measurement with no target: the pool is its only lever."""

    def measure(self, source_text, individual):
        return [1.0]

    def measure_repeated(self, source_text, individual):
        return [1.0]


@pytest.mark.parametrize("key", sorted(ROUTES), ids=str)
def test_auto_select_routing_table(config, key):
    batchable, sim_cycles, workers = key
    if batchable:
        machine = SimulatedMachine("cortex_a15", sim_cycles=sim_cycles)
        target = SimulatedTarget(machine)
        target.connect()
        measurement = PowerMeasurement(target, {"samples": "2"})
    else:
        measurement = _Unbatchable()
    pipeline = EvaluationPipeline(Template(config.template_text),
                                  measurement, DefaultFitness())
    assert supports_batching(pipeline) is batchable
    choices = []
    for count in JOB_COUNTS:
        backend = AutoSelectBackend(workers)
        # Routing reads only the job count; no job is evaluated.
        backend._choose(pipeline, [None] * count)
        choices.append(backend.last_choice)
    assert " ".join(choices) == ROUTES[key]
