"""Golden equivalence suite for steady-state kernel detection.

The tiling contract is *bit-identical observables*: a trace produced by
stopping at the first recurring scheduler state and analytically tiling
the detected period must be indistinguishable — IPC, per-cycle issue
lists, power, voltage waveform, crash verdict — from the full
cycle-by-cycle simulation.  That is what keeps the evaluation cache,
checkpoints and shipped config results valid with detection on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import SimulatedMachine
from repro.cpu.pdn import PDNModel
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.power import PowerModel

ARM_LOOP = """
1:
add x1, x7, x8
mul x2, x5, x6
vmul v0, v1, v2
ldr x3, [x4, #0]
add x9, x9, #8
b 1b
"""

X86_LOOP = """
1:
add rax, rbx
imul rcx, rdx
mulsd xmm0, xmm1
mov r8, [r9 + 0]
add r10, 8
jmp 1b
"""

#: The paper's four platforms: two OOO ARM cores, one in-order ARM
#: core, one x86 OOO core.
PRESETS = ["cortex_a15", "cortex_a7", "xgene2", "athlon_x4"]


def source_for(preset: str) -> str:
    return X86_LOOP if preset == "athlon_x4" else ARM_LOOP


def traces_for(preset: str, hierarchy=None, cycles: int = 1600):
    machine = SimulatedMachine(preset, seed=3)
    program = machine.compile(source_for(preset))
    tiled = PipelineSimulator(machine.arch, detect_steady_state=True) \
        .execute(program, cycles, hierarchy=hierarchy)
    full = PipelineSimulator(machine.arch, detect_steady_state=False) \
        .execute(program, cycles, hierarchy=hierarchy)
    return machine, program, tiled, full


def assert_traces_identical(tiled, full):
    assert tiled.cycles == full.cycles
    assert tiled.instructions_issued == full.instructions_issued
    assert tiled.loop_iterations == full.loop_iterations
    assert tiled.ipc == full.ipc
    assert tiled.group_counts == full.group_counts
    assert list(tiled.group_counts) == list(full.group_counts)
    assert tiled.issued_per_cycle == full.issued_per_cycle
    assert tiled.occupancy == full.occupancy
    assert np.array_equal(tiled.issue_counts, full.issue_counts)
    assert tiled.issue_width_histogram() == full.issue_width_histogram()
    assert np.array_equal(tiled.slot_counts, full.slot_counts)


class TestTraceEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_tiled_trace_matches_full_simulation(self, preset):
        _, _, tiled, full = traces_for(preset)
        assert tiled.period_cycles > 0, \
            f"detection must fire on a periodic loop ({preset})"
        assert full.period_cycles == 0
        assert tiled.simulated_cycles < full.simulated_cycles
        assert_traces_identical(tiled, full)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_hierarchy_forces_full_simulation(self, preset):
        _, _, tiled, full = traces_for(preset,
                                       hierarchy=MemoryHierarchy())
        # Striding addresses + cache state defeat scheduler-state
        # recurrence, so detection must not fire at all.
        assert tiled.period_cycles == 0
        assert_traces_identical(tiled, full)
        assert np.array_equal(tiled.extra_energy_per_cycle,
                              full.extra_energy_per_cycle)
        assert tiled.cache_summary == full.cache_summary

    def test_in_order_core_detects(self):
        _, _, tiled, _ = traces_for("cortex_a7")
        assert tiled.period_cycles > 0

    def test_longer_horizon_same_kernel(self):
        machine = SimulatedMachine("cortex_a15", seed=3)
        program = machine.compile(ARM_LOOP)
        sim = PipelineSimulator(machine.arch)
        short = sim.execute(program, 1600)
        long = sim.execute(program, 160000)
        assert long.period_cycles == short.period_cycles
        assert long.simulated_cycles == short.simulated_cycles
        assert long.cycles == 160000
        # Per-cycle rates converge to the kernel's, independent of the
        # horizon length.
        assert long.ipc == pytest.approx(short.ipc, rel=0.05)


class TestCompressedGeometry:
    def test_expand_reconstructs_full_length(self):
        _, _, tiled, full = traces_for("cortex_a15")
        occ = tiled.expand(tiled.occupancy_counts)
        assert len(occ) == tiled.cycles
        assert occ.tolist() == full.occupancy

    def test_expand_rejects_wrong_length(self):
        _, _, tiled, _ = traces_for("cortex_a15")
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            tiled.expand(np.zeros(tiled.cycles + 1))

    def test_tiling_arithmetic_covers_all_cycles(self):
        _, _, tiled, _ = traces_for("xgene2")
        covered = tiled.prefix_cycles \
            + tiled.repeats * tiled.period_cycles + tiled.remainder_cycles
        assert covered == tiled.cycles

    def test_full_trace_has_identity_geometry(self):
        _, _, _, full = traces_for("cortex_a7")
        assert full.repeats == 0
        assert full.remainder_cycles == 0
        assert full.prefix_cycles == full.simulated_cycles


class TestEnergyEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("with_hierarchy", [False, True])
    def test_vectorized_energy_bit_identical(self, preset,
                                             with_hierarchy):
        hierarchy = MemoryHierarchy() if with_hierarchy else None
        machine, program, tiled, full = traces_for(preset,
                                                   hierarchy=hierarchy)
        model = PowerModel(machine.arch)
        slot_energy = model.slot_energies_pj(program)
        for trace in (tiled, full):
            got = model.energy_trace_pj(program, trace)
            # Reference: the historical per-cycle Python accumulation.
            want = np.empty(trace.cycles)
            occupancy = trace.occupancy
            for cycle, issued in enumerate(trace.issued_per_cycle):
                energy = machine.arch.base_cycle_pj
                energy += machine.arch.window_slot_pj * occupancy[cycle]
                for slot in issued:
                    energy += slot_energy[slot]
                want[cycle] = energy
            if trace.extra_energy_per_cycle is not None:
                want += np.asarray(trace.extra_energy_per_cycle)
            assert np.array_equal(got, want)

    def test_core_power_identical_between_modes(self):
        machine, program, tiled, full = traces_for("cortex_a15")
        model = PowerModel(machine.arch)
        assert model.core_power_w(program, tiled) == \
            model.core_power_w(program, full)
        assert np.array_equal(model.current_trace_a(program, tiled),
                              model.current_trace_a(program, full))


class TestPDNEquivalence:
    def test_periodic_hint_bit_identical(self):
        machine, program, tiled, _ = traces_for("cortex_a15")
        model = PowerModel(machine.arch)
        current = model.current_trace_a(program, tiled)
        pdn = PDNModel(machine.arch.pdn, machine.arch.frequency_hz)
        hinted = pdn.simulate(current, machine.supply_v,
                              period=tiled.period_cycles,
                              prefix=tiled.prefix_cycles)
        plain = pdn.simulate(current, machine.supply_v)
        assert np.array_equal(hinted.voltage, plain.voltage)
        assert hinted.v_min == plain.v_min
        assert hinted.peak_to_peak == plain.peak_to_peak

    def test_wrong_hint_is_harmless(self):
        machine, program, tiled, _ = traces_for("cortex_a15")
        model = PowerModel(machine.arch)
        rng = np.random.default_rng(5)
        current = model.current_trace_a(program, tiled) \
            + rng.normal(0, 0.05, tiled.cycles)   # aperiodic input
        pdn = PDNModel(machine.arch.pdn, machine.arch.frequency_hz)
        hinted = pdn.simulate(current, machine.supply_v,
                              period=7, prefix=3)
        plain = pdn.simulate(current, machine.supply_v)
        assert np.array_equal(hinted.voltage, plain.voltage)


class TestMachineEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("with_hierarchy", [False, True])
    def test_run_results_bit_identical(self, preset, with_hierarchy):
        hierarchy = MemoryHierarchy() if with_hierarchy else None
        kwargs = dict(seed=11, hierarchy=hierarchy)
        on = SimulatedMachine(preset, **kwargs)
        off = SimulatedMachine(preset, steady_state_detection=False,
                               **kwargs)
        a = on.run_source(source_for(preset))
        b = off.run_source(source_for(preset))
        assert a.ipc == b.ipc
        assert a.core_power_w == b.core_power_w
        assert a.chip_power_w == b.chip_power_w
        assert a.power_samples_w == b.power_samples_w
        assert a.temperature_samples_c == b.temperature_samples_c
        assert np.array_equal(a.voltage.voltage, b.voltage.voltage)
        assert a.voltage.v_min == b.voltage.v_min
        assert a.crashed == b.crashed
        assert a.noc_power_w == b.noc_power_w

    def test_crash_verdict_identical_under_low_supply(self):
        on = SimulatedMachine("athlon_x4", seed=2)
        off = SimulatedMachine("athlon_x4", seed=2,
                               steady_state_detection=False)
        low = on.critical_voltage_v() * 1.001
        a = on.run_source(X86_LOOP, supply_v=low)
        b = off.run_source(X86_LOOP, supply_v=low)
        assert a.crashed == b.crashed
        assert np.array_equal(a.voltage.voltage, b.voltage.voltage)

    def test_at_frequency_preserves_detection_setting(self):
        machine = SimulatedMachine("cortex_a15",
                                   steady_state_detection=False)
        shifted = machine.at_frequency(machine.arch.frequency_hz * 1.5)
        assert shifted.steady_state_detection is False
        assert shifted.pipeline.detect_steady_state is False


class TestDetectPeriodHelper:
    def test_detect_period_returns_kernel(self):
        machine = SimulatedMachine("cortex_a15", seed=0)
        program = machine.compile(ARM_LOOP)
        kernel = machine.pipeline.detect_period(program)
        assert kernel is not None
        prefix, period = kernel
        trace = machine.pipeline.execute(program, 1600)
        assert (prefix, period) == (trace.prefix_cycles,
                                    trace.period_cycles)


class TestCompileCache:
    def test_identical_sources_hit(self):
        machine = SimulatedMachine("cortex_a15", seed=0)
        first = machine.compile(ARM_LOOP)
        second = machine.compile(ARM_LOOP)
        assert second is first
        assert machine.compile_cache_hits == 1
        assert machine.compile_cache_misses == 1

    def test_distinct_names_miss(self):
        machine = SimulatedMachine("cortex_a15", seed=0)
        machine.compile(ARM_LOOP, name="a.s")
        machine.compile(ARM_LOOP, name="b.s")
        assert machine.compile_cache_hits == 0
        assert machine.compile_cache_misses == 2

    def test_failures_not_cached(self):
        from repro.core.errors import AssemblyError
        machine = SimulatedMachine("cortex_a15", seed=0)
        for _ in range(2):
            with pytest.raises(AssemblyError):
                machine.compile("1:\nbogus x1, x2\nb 1b\n")
        assert machine.compile_cache_hits == 0

    def test_lru_eviction_bounds_size(self):
        machine = SimulatedMachine("cortex_a15", seed=0)
        cap = machine.COMPILE_CACHE_CAP
        for index in range(cap + 10):
            machine.compile(f"1:\nadd x1, x2, x{index % 10}\n"
                            f"mov x3, #{index}\nb 1b\n")
        assert len(machine._compile_cache) == cap
