"""The generation-level evaluation driver.

:class:`StagedEvaluator` is what the GA engine talks to: it takes a
population, renders every unevaluated individual (render stays in the
driver so cache addressing never crosses a process boundary), satisfies
what it can from the :class:`~repro.evaluation.cache.EvaluationCache`,
fans the misses out through the configured
:class:`~repro.evaluation.backends.ExecutorBackend`, and hands back a
:class:`GenerationOutcome` whose results are sorted in uid order — the
canonical merge order that makes every backend/cache combination
produce identical populations, checkpoints and run histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from .backends import ExecutorBackend, Job, SerialBackend
from .cache import CachedEvaluation, EvaluationCache
from .pipeline import EmptyMeasurementError, EvaluationPipeline, \
    EvaluationResult, StageTimings

__all__ = ["GenerationOutcome", "StagedEvaluator"]

#: Stable stats labels for the stock backends (fallback: class name).
_BACKEND_LABELS = {
    "SerialBackend": "serial",
    "BatchedBackend": "batched",
    "ProcessPoolBackend": "pool",
}


def _backend_label(backend) -> str:
    name = type(backend).__name__
    return _BACKEND_LABELS.get(name, name)


@dataclass
class GenerationOutcome:
    """One generation's evaluation pass, ready to merge.

    ``results`` is uid-ordered and covers every individual evaluated in
    this pass; on a plug-in failure (``error`` set) it covers the
    results completed before the failure point plus all cache hits —
    the driver applies them, checkpoints, then re-raises ``error``.
    """

    results: List[EvaluationResult] = field(default_factory=list)
    error: Optional[EmptyMeasurementError] = None
    timings: StageTimings = field(default_factory=StageTimings)
    cache_hits: int = 0
    measured: int = 0
    screened: int = 0
    #: Target-machine compile-cache traffic summed over the fresh
    #: (non-evaluation-cache-hit) results of this pass.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: Which execution engine ran the generation's misses ("serial",
    #: "batched", "pool", ...) and, for auto-selecting backends, why.
    backend: str = ""
    backend_reason: str = ""


class StagedEvaluator:
    """Evaluates populations through cache → backend → uid-order merge."""

    def __init__(self, pipeline: EvaluationPipeline,
                 backend: Optional[ExecutorBackend] = None,
                 cache: Optional[EvaluationCache] = None) -> None:
        self.pipeline = pipeline
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache

    def evaluate_population(self, population) -> GenerationOutcome:
        outcome = GenerationOutcome()
        jobs: List[Job] = []
        for individual in population:
            if individual.evaluated:
                continue
            began = perf_counter()  # staticcheck: disable=SC404
            source = self.pipeline.render(individual)
            outcome.timings.render_s += perf_counter() - began  # staticcheck: disable=SC404
            cached = self.cache.get(source) if self.cache is not None \
                else None
            if cached is not None:
                outcome.results.append(
                    self._replay(individual, source, cached,
                                 outcome.timings))
                outcome.cache_hits += 1
            else:
                jobs.append((individual, source))

        # The backend sees every miss together (the batched path
        # groups the whole generation).
        for item in self.backend.evaluate(self.pipeline, jobs):
            if isinstance(item, EmptyMeasurementError):
                outcome.error = item
                break
            outcome.results.append(item)
            outcome.timings.add(item.timings)
            outcome.compile_cache_hits += item.compile_cache_hits
            outcome.compile_cache_misses += item.compile_cache_misses
            if self.cache is not None:
                self.cache.put(item.source, CachedEvaluation(
                    measurements=tuple(item.measurements),
                    compile_failed=item.compile_failed,
                    screen_failed=item.screen_failed))

        self._sync_counters(outcome)
        outcome.backend = getattr(self.backend, "last_choice", "") \
            or _backend_label(self.backend)
        outcome.backend_reason = getattr(self.backend, "last_reason", "")
        outcome.results.sort(key=lambda result: result.uid)
        return outcome

    def close(self) -> None:
        """Release backend resources (worker pools)."""
        self.backend.close()

    # -- internals ----------------------------------------------------------

    def _replay(self, individual, source: str, cached: CachedEvaluation,
                timings: StageTimings) -> EvaluationResult:
        """Reconstruct a result from a cache entry (score re-runs)."""
        if cached.compile_failed or cached.screen_failed:
            return EvaluationResult(
                uid=individual.uid, source=source,
                measurements=list(cached.measurements), fitness=0.0,
                compile_failed=cached.compile_failed,
                screen_failed=cached.screen_failed, cache_hit=True)
        began = perf_counter()  # staticcheck: disable=SC404
        fitness = self.pipeline.score(cached.measurements, individual)
        timings.score_s += perf_counter() - began  # staticcheck: disable=SC404
        return EvaluationResult(
            uid=individual.uid, source=source,
            measurements=list(cached.measurements), fitness=fitness,
            cache_hit=True)

    def _sync_counters(self, outcome: GenerationOutcome) -> None:
        """Derive measured/screened counters; replicate screen stats.

        A replicating backend (``shares_state = False``) screens inside
        its worker copies, so the driver-side screen's cumulative
        :class:`~repro.staticcheck.screen.ScreenStats` would otherwise
        stay empty; rebuild them from the returned results.
        """
        screen = self.pipeline.screen
        fresh = [r for r in outcome.results if not r.cache_hit]
        outcome.measured = sum(1 for r in fresh if not r.screen_failed)
        if screen is None:
            return
        outcome.screened = len(fresh)
        if self.backend.shares_state:
            return
        stats = getattr(screen, "stats", None)
        if stats is None:
            return
        for result in fresh:
            stats.screened += 1
            if not result.screen_failed:
                stats.passed += 1
            elif result.compile_failed:
                stats.assembly_failures += 1
            else:
                stats.dataflow_failures += 1
