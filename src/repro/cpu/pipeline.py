"""Cycle-approximate pipeline model.

Executes a :class:`~repro.isa.model.Program` loop on a
:class:`~repro.cpu.microarch.MicroArch`, producing an
:class:`ExecutionTrace`: cycle count, IPC, per-cycle issue lists and
window occupancy.  The trace drives the power model (energy per cycle →
current waveform → PDN voltage), so the *timing texture* matters as much
as the averages: dependency stalls create the low-current phases a dI/dt
virus alternates with bursts of wide issue.

Model summary
-------------

* The loop body repeats; fetch is a sliding window over that infinite
  stream (``window_size`` entries, refilled each cycle).
* Register dependencies are resolved at fetch through a perfect-renaming
  ``last_writer`` map, so only true (RAW) dependencies stall — like the
  rename stage of the real OOO cores the paper stresses.  In-order
  presets simply use a tiny window and must issue in program order.
* Functional units live in port groups (``int``/``fp``/``mem``/``br``);
  each unit accepts one instruction per ``initiation_interval`` — fully
  pipelined ops every cycle, dividers block their unit for the whole
  latency.
* Branches are predicted-taken and never flush (GA loops use the
  ``b 1f`` idiom and a perfectly predictable loop edge, matching the
  paper's observation that viruses have very predictable branches).
* Loads always hit the L1 (the paper: power viruses have "extremely
  high L1 hit rates"); the hit latency comes from the preset.

Steady-state kernel detection
-----------------------------

GeST loops are periodic by construction — a single predictable loop
with no data-dependent control flow — so the scheduler state must
eventually recur.  Each time fetch wraps the loop start, the simulator
hashes its dynamic state *relative to the current cycle and fetch
position* (window contents, unit free-times, in-flight completions,
pending writers).  When a state recurs, every cycle after that point is
a bit-exact tiling of the cycles between the two occurrences: the
simulator stops, records the warm-up prefix plus one period, and the
trace analytically extends them to ``max_cycles``.  The tiled trace is
observationally identical to the full simulation — same IPC, same
per-cycle issue lists, same waveform downstream — it just never
simulates a cycle twice.

Detection is skipped when a :class:`~repro.cpu.cache.MemoryHierarchy`
is attached: memory addresses then depend on *absolute* base-register
values that stride across iterations, and the cache arrays are part of
the machine state, so periodicity of the scheduler alone proves
nothing.  Those runs fall back to the full cycle-by-cycle simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SimulationError
from ..isa.model import DecodedInstruction, Program
from .cache import MemoryHierarchy
from .microarch import MicroArch

__all__ = ["ExecutionTrace", "PipelineSimulator"]


@dataclass
class ExecutionTrace:
    """The observable result of running a loop for ``cycles`` cycles.

    The per-cycle data is stored compactly: only the *simulated* cycles
    (the warm-up prefix plus one detected period, or every cycle when
    no period was found) are materialised, as NumPy arrays in CSR-style
    form.  ``prefix_cycles``/``period_cycles`` describe how the
    simulated segment tiles out to the full ``cycles``; the
    backward-compatible accessors (:attr:`issued_per_cycle`,
    :attr:`occupancy`, :meth:`expand`) reconstruct full-length views on
    demand and are bit-identical to what a full simulation records.
    """

    cycles: int
    instructions_issued: int
    loop_iterations: int
    #: flattened static loop-slot indices issued over the simulated
    #: cycles; cycle ``c`` issued ``issue_slots[issue_offsets[c]:
    #: issue_offsets[c + 1]]`` in issue order
    issue_slots: np.ndarray = field(repr=False,
                                    default_factory=lambda: np.empty(
                                        0, dtype=np.int32))
    #: CSR offsets into ``issue_slots``; length ``simulated_cycles + 1``
    issue_offsets: np.ndarray = field(repr=False,
                                      default_factory=lambda: np.zeros(
                                          1, dtype=np.int64))
    #: instruction-window occupancy per simulated cycle
    occupancy_counts: np.ndarray = field(repr=False,
                                         default_factory=lambda: np.empty(
                                             0, dtype=np.int32))
    #: total dynamic issues per latency group over the full ``cycles``
    group_counts: Dict[str, int] = field(default_factory=dict)
    #: dynamic issue count per static loop slot over the full ``cycles``
    slot_counts: np.ndarray = field(repr=False,
                                    default_factory=lambda: np.empty(
                                        0, dtype=np.int64))
    #: warm-up cycles before the detected period (== simulated cycle
    #: count when no period was found)
    prefix_cycles: int = 0
    #: length of the detected steady-state kernel; 0 when the whole
    #: trace was simulated cycle by cycle
    period_cycles: int = 0
    #: per-cycle energy (pJ) added by cache misses — present only when
    #: a memory hierarchy was attached to the run (hierarchies disable
    #: period detection, so this always covers all ``cycles``)
    extra_energy_per_cycle: Optional[np.ndarray] = None
    #: hierarchy hit/miss summary for the run (see MemoryHierarchy)
    cache_summary: Optional[Dict[str, float]] = None

    # -- compressed-form geometry -------------------------------------------

    @property
    def simulated_cycles(self) -> int:
        """Cycles actually simulated (prefix + one period, or all)."""
        return int(len(self.occupancy_counts))

    @property
    def repeats(self) -> int:
        """Complete period repetitions tiled over ``[prefix, cycles)``."""
        if not self.period_cycles:
            return 0
        return (self.cycles - self.prefix_cycles) // self.period_cycles

    @property
    def remainder_cycles(self) -> int:
        """Partial-period cycles at the end of the tiled trace."""
        if not self.period_cycles:
            return 0
        return (self.cycles - self.prefix_cycles) % self.period_cycles

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Tile per-simulated-cycle ``values`` out to ``cycles`` entries.

        With no detected period this is the identity; with one, the
        period segment is repeated (plus a partial tail) exactly as the
        full simulation would have produced it.  Values are copied, not
        recomputed, so tiled results are bit-identical by construction.
        """
        if len(values) != self.simulated_cycles:
            raise SimulationError(
                f"expand() needs one value per simulated cycle "
                f"({self.simulated_cycles}), got {len(values)}")
        if not self.period_cycles:
            return values
        prefix, period = self.prefix_cycles, self.period_cycles
        kernel = values[prefix:prefix + period]
        parts = [values[:prefix]]
        if self.repeats:
            parts.append(np.tile(kernel, self.repeats))
        if self.remainder_cycles:
            parts.append(kernel[:self.remainder_cycles])
        return np.concatenate(parts)

    # -- full-length views (backward-compatible accessors) ------------------

    @property
    def issue_counts(self) -> np.ndarray:
        """Instructions issued per cycle over the full ``cycles``."""
        return self.expand(np.diff(self.issue_offsets).astype(np.int32))

    @property
    def occupancy(self) -> List[int]:
        """Per-cycle instruction-window occupancy (full length)."""
        return self.expand(self.occupancy_counts).tolist()

    @property
    def issued_per_cycle(self) -> List[List[int]]:
        """Per-cycle lists of static loop-slot indices (full length)."""
        offsets = self.issue_offsets
        slots = self.issue_slots.tolist()
        simulated = [slots[offsets[c]:offsets[c + 1]]
                     for c in range(self.simulated_cycles)]
        if not self.period_cycles:
            return simulated
        prefix, period = self.prefix_cycles, self.period_cycles
        kernel = simulated[prefix:prefix + period]
        return (simulated[:prefix] + kernel * self.repeats
                + kernel[:self.remainder_cycles])

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions_issued / self.cycles

    def issue_width_histogram(self) -> Dict[int, int]:
        """How many cycles issued 0, 1, 2... instructions — the
        activity texture the dI/dt analysis looks at."""
        counts = np.diff(self.issue_offsets)
        per_width = np.bincount(counts, minlength=1)
        if self.period_cycles:
            kernel = counts[self.prefix_cycles:
                            self.prefix_cycles + self.period_cycles]
            per_width = (
                np.bincount(counts[:self.prefix_cycles],
                            minlength=len(per_width))
                + self.repeats * np.bincount(kernel,
                                             minlength=len(per_width))
                + np.bincount(kernel[:self.remainder_cycles],
                              minlength=len(per_width)))
        return {width: int(cycles)
                for width, cycles in enumerate(per_width) if cycles}


#: Snapshot cadence of steady-state detection: the sampling interval
#: (in fetch wraps) starts at 1 and grows by :data:`INTERVAL_GROWTH`
#: after every :data:`SNAPSHOTS_PER_INTERVAL` snapshots.
SNAPSHOTS_PER_INTERVAL = 16
INTERVAL_GROWTH = 2


class _StaticSlot:
    """Pre-resolved per-loop-slot scheduling facts."""

    __slots__ = ("index", "port", "latency", "interval", "reads", "writes",
                 "group", "is_memory", "mem_base", "mem_offset",
                 "opcode", "immediate")

    def __init__(self, index: int, instr: DecodedInstruction,
                 arch: MicroArch) -> None:
        group = instr.group or instr.iclass.value
        self.index = index
        self.group = group
        self.port = arch.port_group_of(group, instr.iclass)
        self.latency = arch.latency_of(group, instr.iclass)
        self.interval = arch.initiation_interval(group, instr.iclass)
        self.reads = instr.reads
        self.writes = instr.writes
        self.is_memory = instr.iclass.is_memory
        self.mem_base = instr.mem_base
        self.mem_offset = instr.mem_offset
        self.opcode = instr.opcode
        self.immediate = instr.immediate


class PipelineSimulator:
    """Greedy list-scheduling pipeline model for one core."""

    def __init__(self, arch: MicroArch,
                 detect_steady_state: bool = True) -> None:
        arch.validate()
        self.arch = arch
        #: When True (the default), the simulator stops once the
        #: scheduler state recurs and tiles the detected period out to
        #: ``max_cycles`` — observationally identical, much faster.
        self.detect_steady_state = detect_steady_state

    #: Memory footprint wrap for cache modelling: base-advancing loops
    #: walk a region of this size, like a large working-set buffer.
    MEMORY_REGION_BYTES = 16 * 1024 * 1024

    def execute(self, program: Program, max_cycles: int = 1600,
                hierarchy: Optional[MemoryHierarchy] = None,
                detect_steady_state: Optional[bool] = None
                ) -> ExecutionTrace:
        """Run the program's loop for exactly ``max_cycles`` cycles.

        The init section is executed architecturally (register values)
        but not timed — it runs once against seconds of loop execution.

        With a ``hierarchy`` attached, memory instructions compute real
        addresses (tracked base-register values plus offsets, wrapped
        over a large working-set region) and see hit/miss latencies and
        miss energies; without one, every access is the flat L1 hit the
        stock experiments assume.  ``detect_steady_state`` overrides
        the simulator-level default; hierarchies always force a full
        simulation (see the module docstring).
        """
        if not program.loop:
            raise SimulationError(
                f"program {program.name!r} has an empty loop body")
        if max_cycles < 1:
            raise SimulationError("max_cycles must be >= 1")

        detect = self.detect_steady_state if detect_steady_state is None \
            else detect_steady_state
        if hierarchy is not None:
            # Absolute striding addresses + cache array contents are part
            # of the machine state; scheduler recurrence proves nothing.
            detect = False

        arch = self.arch
        slots = [_StaticSlot(i, instr, arch)
                 for i, instr in enumerate(program.loop)]
        loop_len = len(slots)

        # Unit bookkeeping: per port group, the next-free cycle of each unit.
        unit_free: Dict[str, List[int]] = {
            port: [0] * count for port, count in arch.ports.items()}

        # Dynamic state.
        window: List[list] = []   # [dyn_id, slot, (src_dyn_ids...)]
        completion: Dict[int, int] = {}
        last_writer: Dict[str, int] = {}
        next_dyn_id = 0
        fetch_index = 0           # position within the loop body

        issue_slots: List[int] = []
        issue_offsets: List[int] = [0]
        occupancy: List[int] = []

        extra_energy: Optional[List[float]] = None
        reg_values: Dict[str, int] = {}
        if hierarchy is not None:
            hierarchy.reset()
            extra_energy = [0.0] * max_cycles
            reg_values = dict(program.register_values)

        window_size = arch.window_size
        issue_width = arch.issue_width
        in_order = arch.in_order

        seen_states: Dict[tuple, int] = {}
        wrapped = False           # fetch crossed the loop start since
        prefix = 0                # the last state snapshot
        period = 0
        # Snapshotting the scheduler state is not free (the window can
        # hold tens of entries), so the sampling interval grows as the
        # snapshot cadence says: long pre-periodic transients cost
        # amortised O(log) keys instead of one per loop iteration.  A
        # recurrence between any two sampled states is a valid
        # (possibly non-minimal) period, so thinning never breaks
        # correctness — it only delays detection by at most one
        # interval.
        wrap_count = 0
        snapshot_interval = 1
        snapshots_at_interval = 0

        cycle = 0
        while cycle < max_cycles:
            # ---- steady-state check (before this cycle's fetch) --------
            if wrapped:
                wrapped = False
                wrap_count += 1
                if wrap_count % snapshot_interval == 0:
                    key = self._state_key(fetch_index, window, unit_free,
                                          completion, last_writer,
                                          next_dyn_id, cycle)
                    earlier = seen_states.get(key)
                    if earlier is not None:
                        prefix = earlier
                        period = cycle - earlier
                        break
                    seen_states[key] = cycle
                    snapshots_at_interval += 1
                    if snapshots_at_interval >= SNAPSHOTS_PER_INTERVAL:
                        snapshots_at_interval = 0
                        snapshot_interval *= INTERVAL_GROWTH

            # ---- fetch: refill the window from the looping stream ------
            while len(window) < window_size:
                slot = slots[fetch_index]
                sources = tuple(last_writer[reg] for reg in slot.reads
                                if reg in last_writer)
                dyn_id = next_dyn_id
                next_dyn_id += 1
                for reg in slot.writes:
                    last_writer[reg] = dyn_id
                window.append([dyn_id, slot, sources])
                fetch_index += 1
                if fetch_index == loop_len:
                    fetch_index = 0
                    wrapped = detect

            occupancy.append(len(window))

            # ---- issue ---------------------------------------------------
            issued_count = 0
            issued_positions: List[int] = []
            for position, entry in enumerate(window):
                if issued_count >= issue_width:
                    break
                dyn_id, slot, sources = entry
                ready = True
                for src in sources:
                    done = completion.get(src)
                    if done is None or done > cycle:
                        ready = False
                        break
                if ready:
                    units = unit_free[slot.port]
                    unit_index = -1
                    for u, free_at in enumerate(units):
                        if free_at <= cycle:
                            unit_index = u
                            break
                    if unit_index >= 0:
                        units[unit_index] = cycle + slot.interval
                        latency = slot.latency
                        if hierarchy is not None:
                            if slot.is_memory:
                                base = reg_values.get(slot.mem_base, 0)
                                address = (base + slot.mem_offset) \
                                    % self.MEMORY_REGION_BYTES
                                result = hierarchy.access(address)
                                latency = max(latency, result.latency)
                                extra_energy[cycle] += result.energy_pj
                            else:
                                self._track_value(slot, reg_values)
                        completion[dyn_id] = cycle + latency
                        issue_slots.append(slot.index)
                        issued_count += 1
                        issued_positions.append(position)
                        continue
                # Not issued: an in-order machine stalls at the first
                # blocked instruction; an OOO machine scans on.
                if in_order:
                    break

            # Single-pass window compaction: issued_positions is sorted
            # ascending, so one merge walk rebuilds the window without
            # the quadratic repeated-del of removing by index.
            if issued_positions:
                removed = iter(issued_positions)
                next_removed = next(removed)
                compacted = []
                for position, entry in enumerate(window):
                    if position == next_removed:
                        next_removed = next(removed, -1)
                    else:
                        compacted.append(entry)
                window = compacted
            issue_offsets.append(len(issue_slots))
            cycle += 1

        return self._build_trace(
            [slot.group for slot in slots], loop_len, max_cycles,
            prefix, period, issue_slots, issue_offsets, occupancy,
            extra_energy, hierarchy)

    @staticmethod
    def _build_trace(groups: Sequence[str], loop_len: int,
                     max_cycles: int, prefix: int, period: int,
                     issue_slots: List[int], issue_offsets: List[int],
                     occupancy: List[int],
                     extra_energy: Optional[List[float]],
                     hierarchy: Optional[MemoryHierarchy]
                     ) -> ExecutionTrace:
        """Derive the trace totals analytically from the simulated
        segment — per-slot issue counts come from one ``bincount`` pass
        rather than per-issue bookkeeping in the scheduler loop."""
        slots_arr = np.asarray(issue_slots, dtype=np.int32)
        offsets_arr = np.asarray(issue_offsets, dtype=np.int64)
        occ_arr = np.asarray(occupancy, dtype=np.int32)
        if not period:
            prefix = len(occupancy)

        def counts_between(begin: int, end: int) -> np.ndarray:
            return np.bincount(
                slots_arr[offsets_arr[begin]:offsets_arr[end]],
                minlength=loop_len)

        if period:
            repeats = (max_cycles - prefix) // period
            remainder = (max_cycles - prefix) % period
            totals = (counts_between(0, prefix)
                      + repeats * counts_between(prefix, prefix + period)
                      + counts_between(prefix, prefix + remainder))
        else:
            totals = counts_between(0, len(occupancy))

        # Group totals in first-dynamic-issue order (every group's first
        # issue happens inside the simulated segment, so the tiled run's
        # insertion order matches a full simulation's).
        group_counts: Dict[str, int] = {}
        issued_slots, first_seen = np.unique(slots_arr, return_index=True)
        for slot_index in issued_slots[np.argsort(first_seen)]:
            group = groups[slot_index]
            group_counts[group] = group_counts.get(group, 0) \
                + int(totals[slot_index])

        return ExecutionTrace(
            cycles=max_cycles,
            instructions_issued=int(totals.sum()),
            loop_iterations=int(totals[loop_len - 1]),
            issue_slots=slots_arr,
            issue_offsets=offsets_arr,
            occupancy_counts=occ_arr,
            group_counts=group_counts,
            slot_counts=totals.astype(np.int64),
            prefix_cycles=prefix,
            period_cycles=period,
            extra_energy_per_cycle=np.asarray(extra_energy)
            if extra_energy is not None else None,
            cache_summary=hierarchy.summary() if hierarchy is not None
            else None,
        )

    @staticmethod
    def _state_key(fetch_index: int, window: List[list],
                   unit_free: Dict[str, List[int]],
                   completion: Dict[int, int],
                   last_writer: Dict[str, int],
                   next_dyn_id: int, cycle: int) -> tuple:
        """Canonical scheduler state, relative to the current cycle and
        fetch position.

        Dynamic instruction ids are renamed to their offset from
        ``next_dyn_id`` and completion times to their delta from
        ``cycle``; two states with equal keys are related by exactly
        that renaming, and the scheduler is equivariant under it — so
        equal keys guarantee bit-identical futures.  Completed sources
        collapse to a single ``ready`` marker (delta 0) because their
        actual finish time can never matter again; completions not
        referenced by the window or a pending writer are unreachable
        and omitted entirely.
        """
        def norm(dyn: int) -> Tuple[int, int]:
            done = completion.get(dyn)
            if done is None:
                return (dyn - next_dyn_id, -1)      # not yet issued
            delta = done - cycle
            return (dyn - next_dyn_id, delta if delta > 0 else 0)

        window_key = tuple(
            (entry[0] - next_dyn_id, entry[1].index,
             tuple(norm(src) for src in entry[2]))
            for entry in window)
        units_key = tuple(
            tuple(free - cycle if free > cycle else 0 for free in units)
            for units in unit_free.values())
        # Dict insertion order is part of the key; it stabilises once
        # the loop has written each destination register once, and an
        # order mismatch merely makes the key over-strict (safe).
        writers_key = tuple(
            (reg, norm(dyn)) for reg, dyn in last_writer.items())
        return (fetch_index, window_key, units_key, writers_key)

    @staticmethod
    def _track_value(slot: "_StaticSlot", reg_values: Dict[str, int]) -> None:
        """Architecturally execute the simple integer ops that stride
        base registers (mov/add/sub with an immediate), so cache
        addresses advance across iterations.  Any other write to a
        tracked register invalidates its value."""
        if len(slot.writes) == 1 and slot.immediate is not None:
            dst = slot.writes[0]
            if slot.opcode == "mov":
                reg_values[dst] = slot.immediate
                return
            if slot.opcode in ("add", "sub") and slot.reads \
                    and slot.reads[0] == dst:
                # Untracked registers start from 0 so bare snippets
                # stride correctly without explicit init code.
                delta = slot.immediate if slot.opcode == "add" \
                    else -slot.immediate
                reg_values[dst] = reg_values.get(dst, 0) + delta
                return
        for reg in slot.writes:
            if reg in reg_values and reg != "flags":
                reg_values.pop(reg, None)

    # -- convenience -------------------------------------------------------

    def detect_period(self, program: Program,
                      max_cycles: int = 1600
                      ) -> Optional[Tuple[int, int]]:
        """Probe the steady-state kernel of ``program``.

        Returns ``(prefix_cycles, period_cycles)`` when the scheduler
        state recurs within ``max_cycles`` cycles, else None.  Cheap by
        construction — simulation stops at the first recurrence — so
        screening and analysis code can reuse the detected period
        without paying for a full run.
        """
        trace = self.execute(program, max_cycles=max_cycles,
                             detect_steady_state=True)
        if not trace.period_cycles:
            return None
        return (trace.prefix_cycles, trace.period_cycles)

    def steady_state_ipc(self, program: Program,
                         max_cycles: int = 1600,
                         warmup_fraction: float = 0.2) -> float:
        """IPC measured after discarding the pipeline warm-up prefix."""
        trace = self.execute(program, max_cycles=max_cycles)
        start = int(trace.cycles * warmup_fraction)
        issued = int(trace.issue_counts[start:].sum())
        cycles = trace.cycles - start
        return issued / cycles if cycles else 0.0
