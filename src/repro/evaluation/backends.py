"""Pluggable executor backends (the paper's "multiple boards").

GeST measures a generation's individuals on however many target boards
are attached; the backend abstraction reproduces that degree of
freedom.  A backend has one entry point, :meth:`ExecutorBackend.evaluate`,
which receives a whole generation's pre-rendered cache misses at once
and returns one :class:`EvaluationResult` per job, **in submission
order** — the driver merges them back into the population in
deterministic uid order, so every backend yields bit-identical
checkpoints, populations and run histories.

* :class:`SerialBackend` — the default: evaluates in the driver
  process against the live plug-in objects, sharing their state
  (screen counters, call counters in test doubles) exactly as the old
  monolithic engine loop did.

* :class:`BatchedBackend` — runs the generation as one vectorized
  :class:`~repro.cpu.machine.BatchedMachine` pass, falling back to the
  serial loop when the pipeline cannot batch.

* :class:`ProcessPoolBackend` — sends one contiguous slice of the
  generation to each of N forked worker processes, which evaluate it
  through a worker-local :class:`BatchedBackend`.  Each worker inherits
  a *replica* of the whole pipeline — its own
  :class:`~repro.cpu.machine.SimulatedMachine`, measurement, fitness
  and screen — so per-board state never races.  Requires the ``fork``
  start method (the pipeline deliberately replicates by inheritance so
  even unpicklable user plug-ins parallelise); results and the per-job
  individuals are pickled across the process boundary.

* :class:`AutoSelectBackend` — routes each generation to one of the
  three above.

The stages themselves (screen verdicts, zero-fitness failures, the
empty-measurement error, scoring) live on
:class:`~repro.evaluation.pipeline.EvaluationPipeline`; backends only
decide how jobs are grouped and where they run.

An :class:`EmptyMeasurementError` raised for a job is returned *in
band* as the final result item; the driver applies every result before
the failure point, checkpoints, and re-raises — so a plug-in bug costs
at most one generation regardless of backend.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..cpu.machine import BatchedMachine, SimulatedMachine
from .pipeline import EmptyMeasurementError, EvaluationPipeline, \
    EvaluationResult, StageTimings, noise_key

__all__ = ["ExecutorBackend", "SerialBackend", "BatchedBackend",
           "ProcessPoolBackend", "AutoSelectBackend", "supports_batching"]

#: A unit of work: the individual plus its pre-rendered source.
Job = Tuple[Individual, str]
#: Backends return results or, in band, the error that stopped a job.
ResultOrError = Union[EvaluationResult, EmptyMeasurementError]


class ExecutorBackend(ABC):
    """Strategy interface for evaluating a batch of pipeline jobs."""

    #: True when the backend evaluates against the driver's live
    #: plug-in objects (their in-process state — screen counters, test
    #: doubles — observes the evaluations).  Replicating backends set
    #: this False so the driver knows to sync observable counters from
    #: the returned results instead.
    shares_state = True

    @abstractmethod
    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        """Evaluate ``jobs`` — the whole generation's cache misses;
        results in submission order.

        Stops dispatching after the first
        :class:`EmptyMeasurementError`, which is appended in band as
        the final item.
        """

    def close(self) -> None:
        """Release any execution resources (idempotent)."""


def _serial_loop(pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
    """Per-job pipeline evaluation, stopping at the first in-band error."""
    results: List[ResultOrError] = []
    for individual, source in jobs:
        try:
            results.append(pipeline.evaluate(individual, source=source))
        except EmptyMeasurementError as exc:
            results.append(exc)
            break
    return results


class SerialBackend(ExecutorBackend):
    """Evaluate in the driver process — bit-identical to the engine's
    historical single loop, and the default."""

    shares_state = True

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        return _serial_loop(pipeline, jobs)


def supports_batching(pipeline: EvaluationPipeline) -> bool:
    """True when ``pipeline`` can take the population-batched path.

    Requires a measurement that (a) opts in via
    :meth:`~repro.measurement.base.Measurement.supports_batching` —
    i.e. implements ``measure_from_result`` so one target execution
    fully determines its values, (b) exposes the stock execution
    parameters, and (c) sits on a :class:`SimulatedTarget` backed by a
    real :class:`~repro.cpu.machine.SimulatedMachine` with a reseedable
    noise stream (without per-individual reseeding the serial path's
    noise draws are order-dependent and a batch could not replicate
    them).
    """
    measurement = pipeline.measurement
    probe = getattr(measurement, "supports_batching", None)
    if not callable(probe) or not probe():
        return False
    if getattr(pipeline, "_reseed", None) is None:
        return False
    machine = getattr(getattr(measurement, "target", None), "machine", None)
    if not isinstance(machine, SimulatedMachine):
        return False
    for attr in ("duration_s", "cores", "sample_count", "repeats",
                 "source_name"):
        if not hasattr(measurement, attr):
            return False
    return callable(getattr(measurement, "aggregate_rounds", None))


class BatchedBackend(ExecutorBackend):
    """Evaluate a whole generation as one vectorized pass.

    The render→measure→score path is re-staged population-wide:
    screening stays per-individual (in job order, against the live
    screen object), every surviving source is compiled through the
    pipeline's shared compile path (:meth:`EvaluationPipeline.compile`,
    so a source the screen assembled is a compile-cache hit), and all
    programs then execute as a single
    :class:`~repro.cpu.machine.BatchedMachine` pass
    — pipeline lockstep simulation of each distinct program and
    ``(population, cycles)`` energy accumulation.  Per-individual noise
    substreams are replayed afterwards in job order, and every
    per-individual step — screen verdict, failure results, scoring and
    the empty-measurement error — is the pipeline's own, so every
    observable is bit-identical to :class:`SerialBackend`.

    Pipelines that cannot batch (custom measurements without
    ``measure_from_result``, non-simulated targets) silently take the
    serial per-job loop — correctness never depends on batching.

    Stage-time accounting: screen, compile and score remain
    per-individual; the batch's execute wall time is apportioned
    equally across the batched jobs' ``measure_s``.
    """

    shares_state = True

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        if not jobs:
            return []
        if not supports_batching(pipeline):
            return _serial_loop(pipeline, jobs)
        measurement = pipeline.measurement

        slots: List[Optional[EvaluationResult]] = [None] * len(jobs)
        timings = [StageTimings() for _ in jobs]
        programs = {}
        deltas = {}
        for index, (individual, source) in enumerate(jobs):
            before = pipeline.compile_counters()
            failed = pipeline.screen_stage(individual, source,
                                           timings[index])
            if failed is None:
                # Compile through the shared path; a source the screen
                # just assembled is a compile-cache hit.
                began = perf_counter()  # staticcheck: disable=SC404
                try:
                    programs[index] = pipeline.compile(source)
                except AssemblyError:
                    failed = pipeline.rejected(individual, source,
                                               timings[index],
                                               compile_failed=True)
                timings[index].measure_s += perf_counter() - began  # staticcheck: disable=SC404
            deltas[index] = pipeline.compile_deltas(before)
            if failed is not None:
                failed.compile_cache_hits, failed.compile_cache_misses = \
                    deltas[index]
                slots[index] = failed

        # Execute the whole batch.
        began_measure = perf_counter()  # staticcheck: disable=SC404
        batch_rows = sorted(programs)
        rounds_by_row = BatchedMachine(measurement.target.machine).run_batch(
            [programs[index] for index in batch_rows],
            duration_s=measurement.duration_s,
            cores=measurement.cores,
            power_sample_count=measurement.sample_count,
            noise_keys=[noise_key(pipeline.noise_seed, jobs[index][1])
                        for index in batch_rows],
            repeats=measurement.repeats)
        measure_share = (perf_counter() - began_measure) \
            / max(1, len(batch_rows))
        for index in batch_rows:
            timings[index].measure_s += measure_share

        # Interpret, aggregate and score per individual, in job order.
        for row, index in enumerate(batch_rows):
            individual, source = jobs[index]
            rounds = [measurement.measure_from_result(result, individual)
                      for result in rounds_by_row[row]]
            measurements = measurement.aggregate_rounds(rounds, individual)
            try:
                result = pipeline.scored(individual, source, measurements,
                                         timings[index])
            except EmptyMeasurementError as error:
                # Mirror the serial stop point: everything before the
                # failing job stands, the error goes in band, later
                # results (already computed, as with any parallel
                # dispatch) drop.
                return [item for item in slots[:index]
                        if item is not None] + [error]
            result.compile_cache_hits, result.compile_cache_misses = \
                deltas[index]
            slots[index] = result
        return slots


# -- worker-side plumbing (module-level so the pool can address it) ---------

_WORKER_PIPELINE: Optional[EvaluationPipeline] = None


def _init_worker(pipeline: EvaluationPipeline) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _run_chunk(chunk: Sequence[Job]) -> List[ResultOrError]:
    """Evaluate one worker's contiguous slice of the generation.

    A :class:`BatchedBackend` runs the slice through the vectorized
    path against the worker's forked pipeline replica (or the serial
    loop when the pipeline cannot batch) — the pool's parallelism
    composes with the batch speedup instead of competing with it.  One
    pickled round trip carries the whole slice out and its results
    back.
    """
    return BatchedBackend().evaluate(_WORKER_PIPELINE, chunk)


# perfbench/trace_spans.py wraps the worker under both names it has had.
_run_subbatch = _run_chunk


class ProcessPoolBackend(ExecutorBackend):
    """Fan a generation's unevaluated individuals over worker processes.

    The pool is created lazily on the first batch (so the fork
    snapshots the fully-constructed pipeline) and persists across
    generations; the engine closes it when the run finishes.
    """

    shares_state = False

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("evaluation workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "ProcessPoolBackend needs the 'fork' start method (worker "
                "replicas inherit the pipeline by forking); this platform "
                "offers none — use SerialBackend")
        self.workers = workers
        self._pool = None
        self._pipeline: Optional[EvaluationPipeline] = None

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        if not jobs:
            return []
        pool = self._ensure_pool(pipeline)
        # One contiguous slice per worker: a single IPC round trip per
        # slice instead of one per individual.  map() preserves
        # submission order, and flattening then truncating at the first
        # in-band error reproduces SerialBackend's stop point exactly
        # (later slices may have run, as with any parallel dispatch,
        # but their results are discarded).
        n = len(jobs)
        worker_count = min(self.workers, n)
        base, extra = divmod(n, worker_count)
        chunks: List[List[Job]] = []
        start = 0
        for index in range(worker_count):
            size = base + (1 if index < extra else 0)
            chunks.append(list(jobs[start:start + size]))
            start += size
        results: List[ResultOrError] = []
        # Dispatch through the defined name: pickle finds a task by
        # its __qualname__, so a wrapper bound to the alias would not
        # resolve.
        for chunk_results in pool.map(_run_chunk, chunks, chunksize=1):
            for item in chunk_results:
                results.append(item)
                if isinstance(item, EmptyMeasurementError):
                    return results
        return results

    def _ensure_pool(self, pipeline: EvaluationPipeline):
        if self._pool is not None and self._pipeline is not pipeline:
            # A stale pool would evaluate against the old forked replica.
            self.close()
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.workers,
                                      initializer=_init_worker,
                                      initargs=(pipeline,))
            self._pipeline = pipeline
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pipeline = None


#: Measured crossover points (dev container, cortex_a15 preset,
#: sim_cycles=600, bare_metal).  Below ``_BATCH_MIN_JOBS`` misses the
#: lockstep batch's setup overhead loses to the plain serial loop;
#: forking/IPC only amortises once a generation carries at least
#: ``_POOL_MIN_CYCLE_WORK`` job·cycles of simulation *and* every worker
#: still receives a batch-worthy slice.
#:
#: ``_BATCH_MIN_JOBS`` was measured while the serial loop re-simulated
#: every repeat.  With the run memo the serial loop simulates each
#: program once, and on the shipped configs (detection on, 2-core
#: container) batched trails it up to about 32 jobs: 0.67–0.88x serial
#: at 8–20 jobs, repeats 1 or 3.  The pool choice weighs batched
#: sub-batches against one batched pass, neither of which goes through
#: the memo; at 32 and 48 jobs on two workers the pool was the fastest
#: of the three (1.17–1.38x serial).  The batch crossover awaits
#: re-calibration.
_BATCH_MIN_JOBS = 8
_POOL_MIN_CYCLE_WORK = 64 * 600


class AutoSelectBackend(ExecutorBackend):
    """Pick serial / batched / pooled execution per generation.

    The historical default silently used a process pool whenever
    ``workers > 1`` — on small populations or short simulations the
    fork+pickle overhead made that a net loss.  This backend sizes each
    generation (jobs × ``sim_cycles``) against measured crossover
    points and routes it to the cheapest delegate, recording the
    decision in :attr:`last_choice` / :attr:`last_reason` so each
    generation's stats row shows which engine ran it and why.
    """

    def __init__(self, pool_workers: int = 1) -> None:
        self.pool_workers = max(1, int(pool_workers))
        self._serial = SerialBackend()
        self._batched = BatchedBackend()
        self._pool: Optional[ProcessPoolBackend] = None
        self._last: ExecutorBackend = self._serial
        self.last_choice = "serial"
        self.last_reason = "no generation evaluated yet"

    @property
    def shares_state(self) -> bool:  # type: ignore[override]
        """Reflects the delegate that ran the last generation."""
        return self._last.shares_state

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        self._last = self._choose(pipeline, jobs)
        return self._last.evaluate(pipeline, jobs)

    def _choose(self, pipeline: EvaluationPipeline,
                jobs: Sequence[Job]) -> ExecutorBackend:
        n = len(jobs)
        if not supports_batching(pipeline):
            # Non-batchable pipelines: the only lever left is the pool.
            if self.pool_workers > 1 and n >= 2 * self.pool_workers:
                self.last_choice = "pool"
                self.last_reason = (
                    f"pipeline not batchable; {n} jobs across "
                    f"{self.pool_workers} workers")
                return self._ensure_pool()
            self.last_choice = "serial"
            self.last_reason = (
                f"pipeline not batchable; {n} jobs too few for "
                f"{self.pool_workers} workers")
            return self._serial
        if n < _BATCH_MIN_JOBS:
            self.last_choice = "serial"
            self.last_reason = (
                f"{n} jobs < batch crossover {_BATCH_MIN_JOBS}")
            return self._serial
        cycles = getattr(pipeline.measurement.target.machine,
                         "sim_cycles", 0)
        work = n * cycles
        if (self.pool_workers > 1
                and work >= _POOL_MIN_CYCLE_WORK
                and n // self.pool_workers >= _BATCH_MIN_JOBS):
            self.last_choice = "pool"
            self.last_reason = (
                f"{n} jobs x {cycles} cycles >= pool crossover "
                f"{_POOL_MIN_CYCLE_WORK}; batched sub-batches on "
                f"{self.pool_workers} workers")
            return self._ensure_pool()
        self.last_choice = "batched"
        self.last_reason = (
            f"{n} jobs >= {_BATCH_MIN_JOBS}, single vectorized pass "
            f"beats {self.pool_workers} worker(s) at {cycles} cycles")
        return self._batched

    def _ensure_pool(self) -> ProcessPoolBackend:
        if self._pool is None:
            self._pool = ProcessPoolBackend(self.pool_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
