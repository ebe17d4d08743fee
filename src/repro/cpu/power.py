"""Energy and power model.

Power is modelled bottom-up from the execution trace:

``P = f · (Σ_issued EPI_eff + base_cycle + window·slot) + P_static``

* **EPI_eff** — each static loop slot's nominal energy-per-instruction
  (from the microarchitecture preset, keyed by latency group) scaled by
  a *data-toggle factor* derived from the operand values flowing through
  it.  The paper stresses that register initialisation "must be
  initialized judiciously" and uses checkerboard patterns (0xAAAA...)
  because they maximise bit switching; here a checkerboard value yields
  toggle ≈ 1.0 and an all-zeros value ≈ 0.0, scaling EPI over roughly a
  2× range.
* **base_cycle** — clock-tree and fetch energy burnt every live cycle.
* **window·slot** — per-occupied-window-slot energy, standing in for
  the issue-queue/dependency-tracking power the paper credits for the
  power virus's extra temperature over the IPC virus.
* **P_static** — leakage, scaled with the square of supply voltage.

Dynamic energy scales with ``(V/V_nom)²`` so V_MIN sweeps see slightly
lower currents at lower supply, as on real silicon.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..isa.model import InstrClass, Program
from .microarch import MicroArch
from .pipeline import ExecutionTrace

__all__ = ["value_toggle_activity", "PowerModel"]

#: Toggle activity assumed for values loaded from (checkerboard-
#: initialised) memory and for registers never written by init code.
DEFAULT_MEMORY_ACTIVITY = 0.9
DEFAULT_REGISTER_ACTIVITY = 0.35

#: EPI multiplier range driven by toggle activity: 0.55× (static data)
#: up to 1.1× (checkerboard).
_EPI_FLOOR = 0.55
_EPI_SPAN = 0.55


def value_toggle_activity(value: int) -> float:
    """Bit-switching score of a 64-bit value in [0, 1].

    Counts transitions between adjacent bits: a checkerboard pattern
    (``0xAAAA...`` or ``0x5555...``) scores 1.0, a constant word scores
    0.0, a random word ≈ 0.5.
    """
    word = value & (2**64 - 1)
    transitions = bin((word ^ (word >> 1)) & (2**63 - 1)).count("1")
    # word ^ (word >> 1) has a set bit for each adjacent-bit transition;
    # 63 adjacent pairs exist in a 64-bit word.
    return min(1.0, transitions / 63.0)


class PowerModel:
    """Derives energy traces and power figures from execution traces."""

    def __init__(self, arch: MicroArch,
                 memory_activity: float = DEFAULT_MEMORY_ACTIVITY,
                 default_activity: float = DEFAULT_REGISTER_ACTIVITY) -> None:
        self.arch = arch
        self.memory_activity = memory_activity
        self.default_activity = default_activity

    # -- per-slot effective energies ------------------------------------------

    def slot_activities(self, program: Program,
                        propagation_passes: int = 3) -> List[float]:
        """Converged data-toggle activity per static loop slot.

        Register activities start from the init section's immediate
        values and propagate through the loop dataflow for a few passes
        (destination activity = mean of source activities; loads import
        the memory pattern's activity).
        """
        activity: Dict[str, float] = {}
        for reg, value in program.register_values.items():
            activity[reg] = value_toggle_activity(value)

        slot_activity = [self.default_activity] * len(program.loop)
        for _ in range(max(1, propagation_passes)):
            for index, instr in enumerate(program.loop):
                sources = [activity.get(reg, self.default_activity)
                           for reg in instr.reads if reg != "flags"]
                if instr.immediate is not None:
                    sources.append(value_toggle_activity(instr.immediate))
                if instr.iclass is InstrClass.MEM_LOAD:
                    op_activity = self.memory_activity
                elif sources:
                    op_activity = sum(sources) / len(sources)
                else:
                    op_activity = self.default_activity
                slot_activity[index] = op_activity
                for reg in instr.writes:
                    if reg != "flags":
                        if instr.iclass is InstrClass.MEM_LOAD:
                            activity[reg] = self.memory_activity
                        else:
                            activity[reg] = op_activity
        return slot_activity

    def slot_energies_pj(self, program: Program) -> np.ndarray:
        """Effective EPI (pJ) per static loop slot."""
        activities = self.slot_activities(program)
        energies = np.empty(len(program.loop))
        for index, instr in enumerate(program.loop):
            group = instr.group or instr.iclass.value
            nominal = self.arch.epi_of(group, instr.iclass)
            factor = _EPI_FLOOR + _EPI_SPAN * activities[index]
            energies[index] = nominal * factor
        return energies

    # -- traces ----------------------------------------------------------------

    def energy_trace_pj(self, program: Program,
                        trace: ExecutionTrace) -> np.ndarray:
        """Dynamic energy per cycle (pJ) over the executed window (one
        row of :meth:`energy_traces_pj`)."""
        return self.energy_traces_pj([program], [trace])[0]

    def energy_traces_pj(self, programs: "List[Program]",
                         traces: "List[ExecutionTrace]"
                         ) -> "List[np.ndarray]":
        """Per-cycle dynamic energy (pJ) of each program over its
        executed window — the power model's one energy entry point.

        Vectorised over the traces' compact form: energy is computed
        for the simulated cycles only and tiled out to ``trace.cycles``
        with :meth:`ExecutionTrace.expand`.  Traces that simulated the
        same number of cycles accumulate together: the base +
        window-occupancy term and the per-issue-position accumulation
        run as single ``(rows, cycles)`` array operations.  The
        accumulation order per cycle (base, then window occupancy, then
        each issued slot in issue order) matches the historical
        per-cycle Python loop exactly, so every row is bit-identical to
        it.  Cache-stall energy, when a trace carries it, is added
        after tiling.
        """
        if len(programs) != len(traces):
            raise ValueError("programs/traces length mismatch")
        by_length: Dict[int, List[int]] = {}
        for row, trace in enumerate(traces):
            by_length.setdefault(len(trace.occupancy_counts), []).append(row)
        energies: List[np.ndarray] = [None] * len(traces)
        for rows in by_length.values():
            group = [traces[row] for row in rows]
            per_sim = self._accumulate_pj([programs[row] for row in rows],
                                          group)
            for row, trace, values in zip(rows, group, per_sim):
                per_cycle = trace.expand(values)
                if trace.extra_energy_per_cycle is not None:
                    per_cycle = per_cycle \
                        + np.asarray(trace.extra_energy_per_cycle)
                energies[row] = per_cycle
        return energies

    def _accumulate_pj(self, programs: "List[Program]",
                       traces: "List[ExecutionTrace]") -> np.ndarray:
        """``(rows, cycles)`` energy per simulated cycle of traces that
        all simulated the same number of cycles."""
        population = len(programs)
        n_sim = len(traces[0].occupancy_counts)
        arch = self.arch
        occ = np.empty((population, n_sim), dtype=np.float64)
        for row, trace in enumerate(traces):
            occ[row] = trace.occupancy_counts
        per_sim = arch.base_cycle_pj + arch.window_slot_pj * occ

        # Flatten the ragged per-row issue lists; index the per-program
        # slot energies through per-row offsets into one flat table.
        slot_energy = [self.slot_energies_pj(p) for p in programs]
        slot_base = np.zeros(population, dtype=np.int64)
        for row in range(1, population):
            slot_base[row] = slot_base[row - 1] + len(slot_energy[row - 1])
        energy_flat = np.concatenate(slot_energy)
        issue_energy = [
            energy_flat[trace.issue_slots + slot_base[row]]
            if len(trace.issue_slots) else np.empty(0)
            for row, trace in enumerate(traces)]
        issue_base = np.zeros(population, dtype=np.int64)
        for row in range(1, population):
            issue_base[row] = issue_base[row - 1] + len(issue_energy[row - 1])
        issue_flat = np.concatenate(issue_energy)

        counts = np.empty((population, n_sim), dtype=np.int64)
        starts = np.empty((population, n_sim), dtype=np.int64)
        for row, trace in enumerate(traces):
            counts[row] = np.diff(trace.issue_offsets)
            starts[row] = trace.issue_offsets[:-1] + issue_base[row]
        max_count = int(counts.max()) if counts.size else 0
        for position in range(max_count):
            mask = counts > position
            per_sim[mask] += issue_flat[starts[mask] + position]
        return per_sim

    def current_trace_a(self, program: Program, trace: ExecutionTrace,
                        vdd: float | None = None) -> np.ndarray:
        """Per-cycle die current draw (amps) for the PDN model."""
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        scale = (vdd / self.arch.vdd_nominal) ** 2
        return self.current_from_energy_a(
            self.energy_trace_pj(program, trace) * scale, vdd)

    def current_from_energy_a(self, energy_pj: np.ndarray,
                              vdd: float) -> np.ndarray:
        """Per-cycle die current (amps) of an energy trace already
        scaled to ``vdd``."""
        dynamic_power_w = energy_pj * 1e-12 * self.arch.frequency_hz
        total_power_w = dynamic_power_w + self.static_power_w(vdd)
        return total_power_w / vdd

    # -- aggregate figures --------------------------------------------------------

    def static_power_w(self, vdd: float | None = None) -> float:
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        return self.arch.static_power_w * (vdd / self.arch.vdd_nominal) ** 2

    def core_power_w(self, program: Program, trace: ExecutionTrace,
                     vdd: float | None = None,
                     warmup_fraction: float = 0.2) -> float:
        """Average single-core power over the post-warm-up window."""
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        scale = (vdd / self.arch.vdd_nominal) ** 2
        return self.mean_power_w(self.energy_trace_pj(program, trace) * scale,
                                 vdd, warmup_fraction)

    def mean_power_w(self, energy_pj: np.ndarray, vdd: float,
                     warmup_fraction: float = 0.2) -> float:
        """Average single-core power of an energy trace already scaled
        to ``vdd``, over the post-warm-up window."""
        start = int(len(energy_pj) * warmup_fraction)
        steady = energy_pj[start:] if len(energy_pj) > start else energy_pj
        mean_pj = float(np.mean(steady)) if len(steady) else 0.0
        return mean_pj * 1e-12 * self.arch.frequency_hz \
            + self.static_power_w(vdd)

    def chip_power_w(self, core_power_w: float,
                     active_cores: int | None = None) -> float:
        """Whole-chip power: independent virus instances per core plus
        uncore — the paper runs one instance per core with no shared
        resources, so per-core power simply scales."""
        cores = active_cores if active_cores is not None \
            else self.arch.core_count
        cores = max(0, min(cores, self.arch.core_count))
        return core_power_w * cores + self.arch.uncore_power_w
