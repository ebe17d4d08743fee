"""Span tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each layer of ``repro``
from outside the package: it replaces a class attribute or module
function with a wrapper that records a span (name, start, end, parent
span, trace id) around the original call.  ``src/`` itself carries no
tracing.  Spans stay in memory; :meth:`Tracer.write` dumps them as JSON
lines when the search ends, and :meth:`Tracer.summary` turns them into
per-layer self times and counts.

A layer's self time is its span's duration minus the time its direct
child spans cover, so the self times of one thread's spans add up to
the root span exactly; the root's own self time is the time no wrapped
entry point accounts for (``core.unattributed_s``).

Pool generations run in forked worker processes.  The wrapper around
the worker-side sub-batch function ships the worker's spans and
counters back inside the pickled result list; the parent adopts them
under the pool dispatch span whose interval contains them, scaled by
``1 / (sub-batches in that generation)`` so that parallel worker time
is counted in wall-clock terms.  What remains of the dispatch span is
``evaluation.dispatch_s``: pool wait, pickling and load imbalance.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from statistics import mean
from time import perf_counter
from typing import Dict, List, Optional

#: The tracer whose spans worker results are adopted into (set by
#: :meth:`Tracer.install`; one per benchmark process).
_ACTIVE: Optional["Tracer"] = None

#: Self-time metrics reported per layer, in output order.
TIME_METRICS = (
    "search.propose", "search.observe",
    "surrogate.featurize", "surrogate.fit", "surrogate.predict",
    "evaluation.evaluate", "evaluation.render", "evaluation.score",
    "evaluation.probe", "evaluation.dispatch",
    "staticcheck.screen", "staticcheck.costmodel",
    "isa.assemble", "isa.splice",
    "measurement.measure",
    "cpu.pipeline", "cpu.batch", "cpu.power", "cpu.pdn", "cpu.machine",
    "core.output", "core.checkpoint",
    "store.recorder", "store.cache_get", "store.cache_put",
    "store.checkpoint",
)

#: RunStore row writers other than ``save_checkpoint`` (its own span);
#: with it and cache puts they make up ``store.rows_written``.
_STORE_WRITERS = ("record_generation", "record_winner", "record_event",
                  "finish_run", "add_cache_activity")


class NullTracer:
    """Stand-in for untraced searches: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def trace(self):
        return contextlib.nullcontext()


class WorkerResults(list):
    """A pool worker's result list carrying the worker's spans home.

    Unpickling it in the parent (the pool's result thread) hands the
    spans and counters to the active tracer.
    """

    def __setstate__(self, state: dict) -> None:
        if _ACTIVE is not None:
            _ACTIVE.adopt(state["spans"], state["counts"])


class Tracer:
    """Spans and counters of one benchmark process (see module doc)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "trace": getattr(self._local, "trace", 0),
                "start": perf_counter(), "end": None}
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def trace(self):
        """Give the spans opened inside (on this thread) a new trace id."""
        previous = getattr(self._local, "trace", 0)
        self._local.trace = next(self._traces)
        try:
            yield
        finally:
            self._local.trace = previous

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a counter; outside any search trace this is a no-op."""
        if getattr(self._local, "trace", 0):
            with self._lock:
                self.counts[key] += amount

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None,
             new_trace: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(result)`` runs once the span is closed, for counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            scope = tracer.trace() if new_trace \
                else contextlib.nullcontext()
            with scope:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)

    def wrap_methods(self, classes, attrs, name: str, after=None) -> None:
        """Wrap each of ``attrs`` a class defines itself (not inherited,
        so an override and its base are both traced, never twice)."""
        for cls in classes:
            for attr in attrs:
                if attr in vars(cls):
                    self.wrap(cls, attr, name, after)

    def wrap_worker(self, module, attr: str) -> None:
        """Wrap a pool worker's sub-batch function so that, run in a
        forked child, it returns its spans with its results."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(chunk):
            tracer._local.stack = []
            mark = len(tracer.spans)
            before = Counter(tracer.counts)
            with tracer.span("evaluation.worker"):
                results = original(chunk)
            shipped = WorkerResults(results)
            shipped.__dict__ = {"spans": tracer.spans[mark:],
                                "counts": tracer.counts - before}
            del tracer.spans[mark:]
            return shipped

        setattr(module, attr, traced)

    def adopt(self, spans: List[dict], counts: Counter) -> None:
        """Take in a worker's spans under fresh ids."""
        with self._lock:
            renamed = {span["id"]: next(self._ids) for span in spans}
            for span in spans:
                span["id"] = renamed[span["id"]]
                span["parent"] = renamed.get(span["parent"])
                span["worker"] = True
                self.spans.append(span)
            self.counts.update(counts)

    def install(self) -> None:
        """Wrap every traced entry point of ``repro``."""
        global _ACTIVE
        _ACTIVE = self
        import repro.cpu.batch as batch
        import repro.evaluation.backends as backends
        import repro.service.orchestrator as orchestrator
        import repro.staticcheck.screen as screen
        import repro.surrogate.features as features
        from repro.core.engine import GeneticEngine
        from repro.core.output import FileRecorder
        from repro.cpu.machine import BatchedMachine, SimulatedMachine
        from repro.cpu.pdn import PDNModel
        from repro.cpu.pipeline import PipelineSimulator
        from repro.cpu.power import PowerModel
        from repro.evaluation.evaluator import StagedEvaluator
        from repro.evaluation.pipeline import EvaluationPipeline
        from repro.evaluation.probe import ShortProbe
        from repro.isa.assembler import BaseAssembler
        from repro.isa.splice import TemplateSplicer
        from repro.measurement.base import Measurement
        from repro.measurement.ipc import IPCMeasurement
        from repro.measurement.oscilloscope import OscilloscopeMeasurement
        from repro.measurement.power import PowerMeasurement
        from repro.search import STRATEGIES, SearchStrategy
        from repro.store import RunStore, SharedEvaluationCache, \
            StoreRecorder
        from repro.surrogate import RidgeModel

        def one_trace(trace) -> None:
            self.count("cpu.traces")
            self.count("cpu.sim_cycles", trace.simulated_cycles)
            if trace.period_cycles:
                self.count("cpu.steady_traces")

        def many_traces(traces) -> None:
            for trace in traces:
                one_trace(trace)

        self.wrap(GeneticEngine, "run", "core.run")
        self.wrap(GeneticEngine, "save_checkpoint", "core.checkpoint")
        strategies = [SearchStrategy] + [STRATEGIES.get(name)
                                         for name in STRATEGIES.names()]
        self.wrap_methods(strategies, ("initial_population",
                                       "next_population"),
                          "search.propose")
        self.wrap_methods(strategies, ("observe",), "search.observe")
        self.wrap(features.SurrogateFeaturizer, "featurize_batch",
                  "surrogate.featurize")
        self.wrap(RidgeModel, "fit", "surrogate.fit")
        self.wrap(RidgeModel, "predict", "surrogate.predict")
        self.wrap(ShortProbe, "probe_batch", "evaluation.probe")
        self.wrap(StagedEvaluator, "evaluate_population",
                  "evaluation.evaluate")
        self.wrap(EvaluationPipeline, "evaluate", "evaluation.evaluate")
        self.wrap(EvaluationPipeline, "render", "evaluation.render")
        self.wrap(EvaluationPipeline, "score", "evaluation.score")
        self.wrap_methods([backends.SerialBackend, backends.BatchedBackend,
                           backends.AutoSelectBackend],
                          ("evaluate", "evaluate_generation"),
                          "evaluation.evaluate")
        self.wrap_methods([backends.ProcessPoolBackend],
                          ("evaluate", "evaluate_generation"),
                          "evaluation.dispatch")
        self.wrap_worker(backends, "_run_subbatch")
        self.wrap_worker(backends, "_run_chunk")
        self.wrap(screen.StaticScreen, "screen", "staticcheck.screen")
        self.wrap(screen, "analyze_cost", "staticcheck.costmodel")
        self.wrap(features, "analyze_cost", "staticcheck.costmodel")
        self.wrap(BaseAssembler, "assemble", "isa.assemble",
                  lambda _: self.count("isa.assemble_calls"))
        self.wrap(TemplateSplicer, "compile", "isa.splice")
        self.wrap_methods([Measurement, PowerMeasurement, IPCMeasurement,
                           OscilloscopeMeasurement],
                          ("measure", "measure_repeated",
                           "measure_from_result", "aggregate_rounds"),
                          "measurement.measure")
        self.wrap(PipelineSimulator, "execute", "cpu.pipeline", one_trace)
        self.wrap(batch, "simulate_population", "cpu.batch", many_traces)
        self.wrap(BatchedMachine, "run_batch", "cpu.batch")
        self.wrap(SimulatedMachine, "run", "cpu.machine")
        self.wrap_methods([PowerModel], ("core_power_w", "current_trace_a",
                                         "energy_traces_pj"), "cpu.power")
        self.wrap_methods([PDNModel], ("simulate", "simulate_batch"),
                          "cpu.pdn")
        self.wrap(FileRecorder, "handle", "core.output")
        self.wrap(StoreRecorder, "handle", "store.recorder")
        self.wrap(RunStore, "save_checkpoint", "store.checkpoint")
        for writer in _STORE_WRITERS:
            self.wrap(RunStore, writer, "store.write")
        self.wrap(SharedEvaluationCache, "get", "store.cache_get")
        self.wrap(SharedEvaluationCache, "put", "store.cache_put")
        self.wrap(orchestrator, "execute_run", "service.run",
                  new_trace=True)

    # -- reporting ----------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    def _attach_workers(self) -> Dict[int, int]:
        """Parent each adopted worker root under the pool dispatch span
        containing it; returns sub-batch count per dispatch span."""
        pools = [s for s in self.spans if s["name"] == "evaluation.dispatch"
                 and not s.get("worker")]
        fanout: Dict[int, int] = Counter()
        for span in self.spans:
            if span.get("worker") and span["parent"] is None:
                for pool in pools:
                    if pool["start"] <= span["start"] <= pool["end"]:
                        span["parent"] = pool["id"]
                        fanout[pool["id"]] += 1
                        break
        return fanout

    def summary(self, records: List[dict], evaluations: int) -> Dict:
        """Per-layer metrics from the spans and the run's stats records.

        Only spans inside a search trace count: set-up and the
        correctness re-evaluation after the search run at trace id 0.
        """
        self.spans = [span for span in self.spans if span["trace"]]
        fanout = self._attach_workers()
        by_id = {span["id"]: span for span in self.spans}
        scale: Dict[int, float] = {}

        def weight(span: dict) -> float:
            # Worker spans count 1/fan-out of their generation's wall.
            if span["id"] not in scale:
                parent = by_id.get(span["parent"])
                if not span.get("worker"):
                    scale[span["id"]] = 1.0
                elif parent is not None and not parent.get("worker"):
                    scale[span["id"]] = 1.0 / max(1, fanout[parent["id"]])
                else:
                    scale[span["id"]] = weight(parent) if parent else 1.0
            return scale[span["id"]]

        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["parent"] in by_id:
                covered[span["parent"]] += \
                    (span["end"] - span["start"]) * weight(span)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            duration = (span["end"] - span["start"]) * weight(span)
            self_s[span["name"]] += duration - covered[span["id"]]
            calls[span["name"]] += 1
        self_s["evaluation.evaluate"] += self_s.pop("evaluation.worker", 0.0)
        self_s["store.recorder"] += self_s.pop("store.write", 0.0)
        serve = sum(s["end"] - s["start"] for s in self.spans
                    if s["name"] == "service.serve")
        runs = sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == "service.run")

        metrics = {f"{name}_s": self_s.get(name, 0.0)
                   for name in TIME_METRICS}
        metrics["core.unattributed_s"] = self_s.get("core.run", 0.0)
        metrics["service.run_overhead_s"] = (
            self_s.get("service.run", 0.0) + serve - runs
            if serve else 0.0)
        counts = self.counts
        metrics["cpu.pipeline_calls"] = calls["cpu.pipeline"]
        metrics["cpu.steady_state_ratio"] = (
            counts["cpu.steady_traces"] / counts["cpu.traces"]
            if counts["cpu.traces"] else 0.0)
        simulator_s = self_s.get("cpu.pipeline", 0.0) \
            + self_s.get("cpu.batch", 0.0)
        metrics["cpu.sim_cycles_per_host_s"] = (
            counts["cpu.sim_cycles"] / simulator_s if simulator_s else 0.0)
        metrics["isa.assemble_calls_per_eval"] = \
            counts["isa.assemble_calls"] / evaluations
        metrics["store.rows_written"] = (calls["store.write"]
                                         + calls["store.checkpoint"]
                                         + calls["store.cache_put"])

        def total(key: str) -> float:
            return sum(record.get(key) or 0 for record in records)

        compiled = total("compile_cache_hits") + total("compile_cache_misses")
        metrics["isa.compile_cache_hit_ratio"] = (
            total("compile_cache_hits") / compiled if compiled else 0.0)
        screened = total("screened")
        metrics["staticcheck.screen_reject_ratio"] = (
            total("screen_failures") / screened if screened else 0.0)
        metrics["evaluation.cache_hit_ratio"] = \
            total("cache_hits") / evaluations
        for backend in ("serial", "batched", "pool"):
            metrics[f"evaluation.generations_{backend}"] = sum(
                1 for record in records if record.get("backend") == backend)
        surrogate = [record["surrogate"] for record in records
                     if record.get("surrogate")]
        metrics["surrogate.simulated_fraction"] = (
            sum(s.get("simulated", 0) for s in surrogate) / evaluations
            if surrogate else 0.0)
        rhos = [s["spearman"] for s in surrogate
                if s.get("spearman") is not None]
        metrics["surrogate.spearman_mean"] = mean(rhos) if rhos else 0.0
        metrics["trace.spans"] = len(self.spans)
        return metrics
