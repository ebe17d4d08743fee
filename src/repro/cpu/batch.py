"""Population-batched execution: lockstep pipeline scheduling.

The serial :class:`~repro.cpu.pipeline.PipelineSimulator` pays its cost
per *individual* — a Python-level scheduler loop per simulated cycle.
A GA generation evaluates tens to hundreds of individuals whose loops
run on the *same* microarchitecture, so the per-cycle work can be
stacked along a population axis and executed as a handful of NumPy
operations per cycle instead of a Python loop per individual per cycle.

This module implements that lockstep scheduler.  The contract is
**bit-identical observables**: every per-individual quantity the serial
path exposes (expanded issue counts, occupancy, totals, and everything
the power/PDN stages derive from them) is reproduced exactly, enforced
by the golden suite in ``tests/test_batched_golden.py``.

Why the lockstep step can be exact
----------------------------------

* **Static dependency offsets.**  The serial scheduler resolves RAW
  dependencies through a ``last_writer`` dict at fetch.  Because fetch
  walks the loop body cyclically, the *distance* from a dynamic
  instruction to the nearest prior writer of each register it reads is
  a pure function of its loop slot: for dynamic id ``d`` at slot
  ``d mod L``, the k-th source is ``d - back_off[slot][k]`` (no
  dependence while ``d - off < 0``, i.e. during the first iteration
  before the register's first write).  The offsets are precomputed per
  individual by replaying two loop iterations of the serial fetch rule,
  so lockstep fetch needs no sequential bookkeeping — and the whole
  window (slots, ports, sources) is derivable from the dynamic-id
  matrix alone, which is the only per-entry state carried cycle to
  cycle.
* **Constant window occupancy.**  Serial fetch refills the window to
  ``window_size`` entries every cycle (there is no fetch bandwidth
  limit), so occupancy is the constant ``W`` and the window is a
  fixed-shape ``(population, W)`` array.
* **Rank-based issue selection.**  The serial greedy scan issues a
  ready entry iff fewer than ``avail[port]`` ready same-port entries
  precede it *and* fewer than ``issue_width`` entries issued before it.
  Width exhaustion blocks every later entry (the scan breaks), so the
  scan is equivalent to: select ready entries whose same-port ready
  rank fits the port's free units, then keep the first ``issue_width``
  of those.  Both ranks are cumulative sums along the window axis (the
  per-port ranks are packed one byte per port group into a single
  int64 cumsum).  An in-order core additionally stalls at the first
  entry that fails either test — a ``logical_and.accumulate`` prefix.
* **Functional units are interchangeable.**  Within a port group only
  the *multiset* of unit free-times matters, never which unit an
  instruction landed on; per-port busy counters plus a release ring
  (busy counts scheduled to drop at ``cycle + interval``) reproduce the
  serial free-time lists exactly.
* **Completion ring.**  Source readiness needs completion cycles for
  dynamic ids at most ``window span + loop length`` behind the fetch
  head; a power-of-two ring indexed by ``dyn & (R - 1)`` holds them,
  re-initialised to "not issued" at fetch.  The ring is grown (rarely)
  if a pathological stall makes the window span approach ``R``.

Steady-state recurrence is detected per individual with the serial
snapshot cadence (on fetch wrap, sampling interval growing as
``pipeline.SNAPSHOTS_PER_INTERVAL``/``INTERVAL_GROWTH`` set).  The
key is a different — but equally canonical — relativisation of the
scheduler state: fetch phase, window contents
relative to the fetch head, completion deltas for exactly the ids a
future cycle can still observe (the window span plus one loop length
behind the head — older ids are unreachable, and including them would
both miss recurrences against stale ring slots and over-strictly
compare completions nothing can read), port busy counts and the rolled
release ring.  Equal keys therefore guarantee a true recurrence of the
lockstep state machine.  Any true recurrence yields bit-identical
*expanded* observables (``ExecutionTrace.expand`` copies values and
totals are derived analytically), so the detected (prefix, period) pair
need not match the serial one — the goldens compare expanded forms,
which do match bitwise.

Individuals leave the lockstep set as soon as they recur (or reach
``max_cycles``); the state arrays are compacted so stragglers do not
pay for finished rows.  Memory hierarchies are *not* supported here —
address-dependent latencies break the static-offset argument — and
callers fall back to the serial simulator in that case.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.errors import SimulationError
from ..isa.model import Program
from .microarch import MicroArch
from .pipeline import (INTERVAL_GROWTH, SNAPSHOTS_PER_INTERVAL,
                       ExecutionTrace, PipelineSimulator, slot_timing)

__all__ = ["simulate_population"]

#: "Fetched but not yet issued" sentinel in the completion ring.  Well
#: below int32 overflow even after ``- cycle`` normalisation.
_NOT_ISSUED = np.int32(2 ** 30)
#: Padding offset for absent sources: ``dyn - _PAD_OFF`` is always
#: negative, which is exactly the "no dependence" condition.
_PAD_OFF = 2 ** 29
#: Stragglers are handed to the serial simulator once fewer than
#: ``population / _EJECT_DIVISOR`` rows remain active (tuned on the
#: evaluation benchmark; the re-run restarts from cycle zero, so a low
#: threshold quickly loses what the lockstep pass already paid for).
_EJECT_DIVISOR = 32


class _ProgramTables:
    """Per-individual static scheduling tables for the lockstep loop."""

    __slots__ = ("groups", "loop_len", "port", "latency", "interval",
                 "back_off", "n_sources")

    def __init__(self, program: Program, arch: MicroArch,
                 port_index: Dict[str, int],
                 lookup_memo: Dict[tuple, Tuple[str, int, int, int]]) -> None:
        loop = program.loop
        if not loop:
            raise SimulationError(
                f"program {program.name!r} has an empty loop body")
        loop_len = len(loop)
        self.loop_len = loop_len
        memo_get = lookup_memo.get
        entries = []
        for instr in loop:
            key = (instr.group, instr.iclass)
            entry = memo_get(key)
            if entry is None:
                group, port, latency, interval = slot_timing(instr, arch)
                entry = (group, port_index[port], latency, interval)
                lookup_memo[key] = entry
            entries.append(entry)
        self.groups = [entry[0] for entry in entries]
        self.port = np.array([entry[1] for entry in entries], np.int16)
        self.latency = np.array([entry[2] for entry in entries], np.int32)
        self.interval = np.array([entry[3] for entry in entries], np.int32)
        # Replay two loop iterations of the serial fetch rule to read
        # off the cyclic nearest-writer distances.  The first pass
        # seeds last_writer; the second is in steady state, where every
        # in-loop-written register has a writer within L instructions.
        last_writer: Dict[str, int] = {}
        for index, instr in enumerate(loop):
            for reg in instr.writes:
                last_writer[reg] = index
        offsets: List[List[int]] = []
        n_sources = 0
        for index, instr in enumerate(loop):
            dyn = loop_len + index
            offs = [dyn - last_writer[reg] for reg in instr.reads
                    if reg in last_writer]
            offsets.append(offs)
            if len(offs) > n_sources:
                n_sources = len(offs)
            for reg in instr.writes:
                last_writer[reg] = dyn
        self.n_sources = n_sources
        pad_row = [_PAD_OFF] * max(n_sources, 1)
        self.back_off = np.array(
            [offs + pad_row[len(offs):] for offs in offsets], np.int32)


def _pow2_at_least(value: int) -> int:
    size = 1
    while size < value:
        size *= 2
    return size


def simulate_population(programs: Sequence[Program], arch: MicroArch,
                        max_cycles: int,
                        detect_steady_state: bool = True
                        ) -> List[ExecutionTrace]:
    """Execute every program's loop for ``max_cycles`` cycles, lockstep.

    Returns one :class:`ExecutionTrace` per program, in input order,
    with observables bit-identical to
    ``PipelineSimulator(arch).execute(program, max_cycles)`` (no memory
    hierarchy; see the module docstring).
    """
    arch.validate()
    if max_cycles < 1:
        raise SimulationError("max_cycles must be >= 1")
    population = len(programs)
    if population == 0:
        return []

    port_names = list(arch.ports)
    if len(port_names) > 8:
        raise SimulationError(
            "lockstep scheduler supports at most 8 port groups "
            f"({arch.name} has {len(port_names)})")
    if arch.window_size > 250:
        raise SimulationError(
            "lockstep scheduler packs per-port ready ranks into bytes; "
            f"window_size {arch.window_size} exceeds 250")
    port_index = {name: i for i, name in enumerate(port_names)}
    units = np.fromiter((arch.ports[name] for name in port_names),
                        np.int32, len(port_names))
    n_ports = len(port_names)

    lookup_memo: Dict[tuple, Tuple[int, int, int]] = {}
    tables = [_ProgramTables(program, arch, port_index, lookup_memo)
              for program in programs]

    window = arch.window_size
    width = arch.issue_width
    in_order = arch.in_order
    loop_max = max(t.loop_len for t in tables)
    n_src = max(max(t.n_sources for t in tables), 1)
    lat_max = int(max(int(t.latency.max()) for t in tables))
    intv_max = int(max(int(t.interval.max()) for t in tables))

    # Dynamic ids are bounded by window + max_cycles * width; when that
    # (and every completion cycle) fits comfortably under 2**14, the id
    # matrices, completion ring and source offsets all shrink to int16,
    # roughly halving the memory traffic of the per-cycle hot path.
    id_bound = window + max_cycles * width
    small_ids = id_bound < 16000 and max_cycles + lat_max < 16000
    id_dtype = np.int16 if small_ids else np.int32
    not_issued = id_dtype(2 ** 14 if small_ids else _NOT_ISSUED)
    pad_off = 2 ** 14 if small_ids else _PAD_OFF

    # Stacked static tables, padded to the longest loop.
    loop_lens = np.fromiter((t.loop_len for t in tables), np.int16,
                            population)
    port_tab = np.zeros((population, loop_max), np.int16)
    lat_tab = np.ones((population, loop_max), np.int32)
    intv_tab = np.ones((population, loop_max), np.int32)
    back_tab = np.full((population, loop_max, n_src), pad_off, id_dtype)
    for row, t in enumerate(tables):
        port_tab[row, :t.loop_len] = t.port
        lat_tab[row, :t.loop_len] = t.latency
        intv_tab[row, :t.loop_len] = t.interval
        back_tab[row, :t.loop_len, :t.back_off.shape[1]] = \
            np.where(t.back_off == _PAD_OFF, pad_off, t.back_off)

    # Hot-path layouts: flat views consumed by ``np.take`` (measurably
    # faster than multi-axis fancy indexing), per-source-slot 2D slices
    # of the back-offset table, and pre-shifted issue-rank tables.
    port_flat = port_tab.reshape(-1)
    lat_flat = lat_tab.reshape(-1)
    intv_flat = intv_tab.reshape(-1)
    back_flats = [np.ascontiguousarray(back_tab[:, :, k]).reshape(-1)
                  for k in range(n_src)]
    rank_dtype = np.int32 if n_ports <= 4 else np.int64
    pow_flat = np.left_shift(rank_dtype(1),
                             port_tab.astype(rank_dtype) << 3).reshape(-1)
    shift_flat = (port_tab.astype(np.int32) << 3).reshape(-1)

    ring_size = _pow2_at_least(2 * (window + loop_max + lat_max + width))
    ring_size = max(ring_size, 64)
    release_depth = max(_pow2_at_least(intv_max + 2), 32)

    # Per-individual (global-row) output buffers.  Rows are removed
    # from the lockstep set the moment they finish, so buffer lengths
    # never exceed the recorded simulated-cycle counts.
    issue_buf = np.zeros((population, window + max_cycles * width),
                         np.int16)
    issue_len = np.zeros(population, np.int64)
    count_buf = np.zeros((population, max_cycles), np.int16)
    res_prefix = np.zeros(population, np.int64)
    res_period = np.zeros(population, np.int64)
    res_cycles = np.full(population, max_cycles, np.int64)

    # Recurrence bookkeeping.  Wrap counting and snapshot-cadence
    # filtering are vectorised; only rows actually due for a snapshot
    # pay Python-level key construction.
    seen_states: List[dict] = [dict() for _ in range(population)]
    wrap_count = np.zeros(population, np.int64)
    snapshot_interval = np.ones(population, np.int64)
    snapshots_at_interval = np.zeros(population, np.int64)

    # Lockstep state over the active rows (always the leading slice of
    # each array; ``act`` maps active row → global row).  The window is
    # one int32 matrix of dynamic ids in fetch order — slots, ports and
    # sources are recomputed from it each cycle via the static tables.
    act = np.arange(population)
    w_dyn = np.zeros((population, window), id_dtype)
    ring = np.full((population, ring_size), not_issued, id_dtype)
    busy = np.zeros((population, n_ports), np.int32)
    release = np.zeros((population, n_ports, release_depth), np.int16)
    next_dyn = np.zeros(population, np.int32)
    phase = np.zeros(population, np.int32)
    survivors = np.zeros(population, np.int32)
    wrapped = np.zeros(population, bool)

    ring_ages = np.arange(ring_size, dtype=np.int32)[None, :]
    detect = bool(detect_steady_state)
    loop_act = loop_lens.copy()
    #: Sentinel above every live dynamic id: issued entries are bumped
    #: to it so an in-place sort compacts survivors (ids are strictly
    #: increasing in fetch order, so sorting IS the stable compaction).
    dyn_max = id_dtype(2 ** 14 + 2 ** 13 if small_ids else 2 ** 30 + 1)
    #: Once the active set is this small, vectorised per-cycle overhead
    #: exceeds the cost of simply re-running the stragglers through the
    #: serial simulator (whose traces are bit-identical by the same
    #: arguments this module rests on).  The serial re-run starts from
    #: cycle zero, so the threshold is deliberately conservative.
    eject_below = max(2, population // _EJECT_DIVISOR)

    take = np.take
    rows01 = gbase = rbase = pbase = ring_flat = None
    n_cached = -1

    cycle = 0
    ejected: Dict[int, ExecutionTrace] = {}
    while cycle < max_cycles and len(act):
        n_active = len(act)

        # ---- straggler ejection: once only a handful of rows remain,
        # the fixed cost of vector dispatch per cycle exceeds the serial
        # simulator's per-row cost; hand the rest over (bit-identical by
        # the equivalence arguments in the module docstring) ------------
        if n_active <= eject_below and n_active < population:
            break

        # ---- free units whose initiation interval elapsed ------------
        due = cycle & (release_depth - 1)
        busy[:n_active] -= release[:n_active, :, due]
        release[:n_active, :, due] = 0

        # ---- steady-state check (before this cycle's fetch) ----------
        if detect:
            wrapped_rows = np.nonzero(wrapped[:n_active])[0]
            finished = None
            if len(wrapped_rows):
                wrapped[:n_active] = False
                wg = act[wrapped_rows]
                wrap_count[wg] += 1
                due_rows = wrapped_rows[
                    wrap_count[wg] % snapshot_interval[wg] == 0]
                if len(due_rows):
                    finished = _check_recurrence(
                        due_rows, act, w_dyn, ring, busy, release,
                        next_dyn, phase, survivors, loop_act, cycle,
                        ring_size, release_depth, not_issued,
                        seen_states, snapshot_interval,
                        snapshots_at_interval, res_prefix,
                        res_period, res_cycles)
            if finished:
                keep = np.ones(n_active, bool)
                keep[finished] = False
                kept = int(keep.sum())
                for state in (w_dyn, ring, busy, next_dyn, phase,
                              survivors, loop_act, act):
                    state[:kept] = state[:n_active][keep]
                release[:kept] = release[:n_active][keep]
                act = act[:kept]
                if not kept:
                    break
                n_active = kept

        a_dyn = w_dyn[:n_active]
        a_busy = busy[:n_active]
        a_next = next_dyn[:n_active]
        a_phase = phase[:n_active]
        a_surv = survivors[:n_active]
        a_loop = loop_act[:n_active]

        # ---- guard: grow the completion ring if the window span plus
        # the dependency horizon approaches its capacity --------------
        span = int((a_next - a_dyn[:, 0]).max()) if cycle else 0
        if span + loop_max + lat_max + window >= ring_size:
            new_size = ring_size * 2
            grown = np.full((population, new_size), not_issued, id_dtype)
            r01 = np.arange(n_active)[:, None]
            old_ids = (a_next[:, None] - ring_size) + ring_ages
            grown[r01, old_ids & (new_size - 1)] = \
                ring[:n_active][r01, old_ids & (ring_size - 1)]
            ring = grown
            ring_size = new_size
            ring_ages = np.arange(ring_size, dtype=np.int32)[None, :]
            n_cached = -1

        # ---- hoisted flat-index bases, recomputed only when the
        # active set or the ring geometry changes ----------------------
        if n_active != n_cached:
            rows01 = np.arange(n_active)
            gbase = (act * loop_max)[:, None]
            rbase = (rows01 * ring_size)[:, None]
            pbase = (rows01 * n_ports)[:, None]
            ring_flat = ring[:n_active].reshape(-1)
            n_cached = n_active
        mask = ring_size - 1

        # ---- fetch: refill every window to exactly W entries ---------
        n_new = window - a_surv
        total = int(n_new.sum())
        if total:
            rows_rep = np.repeat(rows01, n_new)
            starts = np.cumsum(n_new) - n_new
            offs = np.arange(total, dtype=np.int32) - starts[rows_rep]
            new_dyn = a_next[rows_rep] + offs
            a_dyn[rows_rep, a_surv[rows_rep] + offs] = new_dyn
            ring_flat[rows_rep * ring_size + (new_dyn & mask)] = \
                not_issued
            advanced = a_phase + n_new
            wrapped[:n_active] = advanced >= a_loop
            a_phase[:] = advanced % a_loop
            a_next += n_new

        # ---- rebuild window facts from the dynamic ids ---------------
        slot = a_dyn % a_loop[:, None]
        base2 = gbase + slot
        port = take(port_flat, base2)

        # ---- readiness: all sources complete by this cycle -----------
        src = a_dyn - take(back_flats[0], base2)
        done = take(ring_flat, rbase + (src & mask))
        blocked = (src >= 0) & (done > cycle)
        for k in range(1, n_src):
            src = a_dyn - take(back_flats[k], base2)
            done = take(ring_flat, rbase + (src & mask))
            blocked |= (src >= 0) & (done > cycle)
        ready = ~blocked

        # ---- issue selection (see module docstring for the proof) ----
        rank_packed = np.cumsum(take(pow_flat, base2) * ready, axis=1)
        port_rank = (rank_packed >> take(shift_flat, base2)) & 0xFF
        avail = units[None, :] - a_busy
        avail_here = take(avail.reshape(-1), pbase + port)
        selected = ready & (port_rank <= avail_here)
        sel_rank = np.cumsum(selected, axis=1, dtype=np.int32)
        if in_order:
            selected = np.logical_and.accumulate(selected, axis=1)
        issued = selected & (sel_rank <= width)

        # ---- apply issues --------------------------------------------
        rows_i, cols_i = np.nonzero(issued)
        glob_i = act[rows_i]
        base_i = base2[rows_i, cols_i]
        dyn_i = a_dyn[rows_i, cols_i]
        lat_i = lat_flat[base_i]
        intv_i = intv_flat[base_i]
        ring_flat[rows_i * ring_size + (dyn_i & mask)] = cycle + lat_i
        # Unit busy/release tracking only matters past an initiation
        # interval of 1: a fully-pipelined instruction's unit is free
        # again before the next cycle's selection ever reads the busy
        # counter, so its increment/decrement pair is unobservable.
        long_ix = np.nonzero(intv_i > 1)[0]
        if len(long_ix):
            rows_l = rows_i[long_ix]
            ports_l = port[rows_l, cols_i[long_ix]]
            a_busy += np.bincount(rows_l * n_ports + ports_l,
                                  minlength=n_active * n_ports) \
                .reshape(n_active, n_ports).astype(np.int32)
            np.add.at(
                release[:n_active],
                (rows_l, ports_l,
                 (cycle + intv_i[long_ix]) & (release_depth - 1)),
                1)
        issue_buf[glob_i, issue_len[glob_i]
                  + (sel_rank[rows_i, cols_i] - 1)] = \
            slot[rows_i, cols_i].astype(np.int64)
        per_row = issued.sum(axis=1, dtype=np.int32)
        count_buf[act, cycle] = per_row
        issue_len[act] += per_row

        # ---- compact: bump issued ids past every live id, then an
        # in-place sort IS the stable compaction (ids are strictly
        # increasing along each row in fetch order) --------------------
        np.copyto(a_dyn, dyn_max, where=issued)
        a_dyn.sort(axis=1)
        a_surv[:] = window - per_row
        cycle += 1

    # ---- straggler rows: re-run serially from scratch ----------------
    if len(act) and cycle < max_cycles:
        serial = PipelineSimulator(arch)
        for g in act:
            ejected[int(g)] = serial.execute(
                programs[int(g)], max_cycles, detect_steady_state=detect)

    # ---- materialise one trace per individual ------------------------
    traces: List[ExecutionTrace] = []
    for g, t in enumerate(tables):
        done_trace = ejected.get(g)
        if done_trace is not None:
            traces.append(done_trace)
            continue
        sim = int(res_cycles[g])
        counts = count_buf[g, :sim].astype(np.int64)
        offsets = np.zeros(sim + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        traces.append(PipelineSimulator._build_trace(
            t.groups, t.loop_len, max_cycles,
            int(res_prefix[g]), int(res_period[g]),
            issue_buf[g, :int(issue_len[g])].astype(np.int32),
            offsets, np.full(sim, window, np.int32), None, None))
    return traces


def _check_recurrence(due_rows, act, w_dyn, ring, busy, release,
                      next_dyn, phase, survivors, loop_act, cycle,
                      ring_size, release_depth, not_issued, seen_states,
                      snapshot_interval, snapshots_at_interval,
                      res_prefix, res_period, res_cycles):
    """Snapshot the scheduler state of ``due_rows`` and record any
    recurrence.  Returns the active-row indices that just finished.

    The canonical key is built vectorised for all due rows at once;
    only the final ``tobytes`` + dict probe run per row.  Completion
    deltas cover exactly the reachable horizon (window span plus one
    loop length behind the fetch head): older ids can never be read by
    a future cycle, and early in a run their ring slots still hold
    initialisation values — including them would both miss genuine
    recurrences and over-strictly compare dead completions.
    """
    rows = np.asarray(due_rows)
    heads = next_dyn[rows]
    # Ring statuses in oldest→newest id order: entry j is id
    # ``head - ring_size + j``.
    ages = np.arange(ring_size, dtype=np.int32)[None, :]
    rolled = ring[rows[:, None], (heads[:, None] + ages) & (ring_size - 1)]
    deltas = np.where(rolled == not_issued, np.int32(-1),
                      np.maximum(rolled - np.int32(cycle), np.int32(0)))
    spin = (np.int32(cycle) + np.arange(release_depth, dtype=np.int32)) \
        & (release_depth - 1)
    pending = release[rows][:, :, spin]
    keep_counts = survivors[rows]
    cols = np.arange(w_dyn.shape[1], dtype=np.int32)[None, :]
    live = cols < keep_counts[:, None]
    rel_ids = np.where(live, w_dyn[rows] - heads[:, None], np.int32(0))
    rel_slot = np.where(live, w_dyn[rows] % loop_act[rows][:, None],
                        np.int32(0))
    finished: List[int] = []
    for i, row in enumerate(due_rows):
        g = int(act[row])
        keep = int(keep_counts[i])
        oldest = int(w_dyn[row, 0]) if keep else int(heads[i])
        horizon = min(int(heads[i]) - oldest + int(loop_act[row]),
                      ring_size)
        key = (int(phase[row]), keep,
               rel_ids[i].tobytes(), rel_slot[i].tobytes(),
               deltas[i, ring_size - horizon:].tobytes(),
               busy[row].tobytes(), pending[i].tobytes())
        earlier = seen_states[g].get(key)
        if earlier is not None:
            res_prefix[g] = earlier
            res_period[g] = cycle - earlier
            res_cycles[g] = cycle
            finished.append(row)
            continue
        seen_states[g][key] = cycle
        snapshots_at_interval[g] += 1
        if snapshots_at_interval[g] >= SNAPSHOTS_PER_INTERVAL:
            snapshots_at_interval[g] = 0
            snapshot_interval[g] *= INTERVAL_GROWTH
    return finished
