"""The staged evaluation pipeline (render → screen → measure → score).

Measurement dominates a GeST search — the paper runs generations of
individuals against multiple target boards in parallel precisely
because the GA itself is cheap.  This module extracts the evaluation of
*one* individual into an explicit pipeline object so executor backends
(:mod:`repro.evaluation.backends`) can replicate it across worker
processes, the cache (:mod:`repro.evaluation.cache`) can skip it, and
the engine (:mod:`repro.core.engine`) shrinks to pure GA logic.

Stages, mirroring what the engine's old monolithic loop interleaved:

1. **render** — instantiate the template with the individual's loop body;
2. **screen** — optional pre-measurement static screen
   (:class:`repro.staticcheck.screen.StaticScreen`); failures take the
   zero-fitness path without touching the pipeline model.  Pruning
   scorers, screen and measurement share one compile path
   (:meth:`EvaluationPipeline.compile`), so a source is assembled once;
3. **measure** — ``measure_repeated`` on the measurement plug-in;
   :class:`~repro.core.errors.AssemblyError` becomes a zero-fitness
   compile failure;
4. **score** — the fitness plug-in maps measurements to one value.

Determinism contract
--------------------
Before each measure stage the pipeline reseeds the measurement's noise
stream with a key derived from the GA seed and a digest of the rendered
source (:func:`noise_key`).  Each evaluation is therefore a pure
function of (source, target, measurement parameters) — independent of
the order individuals are measured in and of which process measures
them.  That single property is what makes ``SerialBackend``,
``ProcessPoolBackend`` and cache-hit replay produce bit-identical
populations and run histories.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Protocol, Sequence

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..core.template import Template
from ..isa.model import Program
from ..isa.splice import TemplateSplicer

__all__ = ["MeasurementProtocol", "FitnessProtocol", "ScreenProtocol",
           "ScreenReportProtocol", "StageTimings", "EvaluationResult",
           "EmptyMeasurementError", "EvaluationPipeline", "noise_key"]


# ---------------------------------------------------------------------------
# Plug-in protocols (moved here from repro.core.engine; re-exported there)
# ---------------------------------------------------------------------------

class MeasurementProtocol(Protocol):
    """What the evaluation layer needs from a measurement object
    (paper III.C).

    Both methods are required: the pipeline always dispatches through
    :meth:`measure_repeated`, so a plug-in that omits it fails loudly at
    engine construction instead of silently measuring single-shot.
    Subclasses of :class:`repro.measurement.base.Measurement` inherit a
    correct ``measure_repeated`` and only override ``measure``.
    """

    def measure(self, source_text: str,
                individual: Individual) -> List[float]:
        """Compile and run ``source_text`` on the target, returning the
        list of measurement values (first one is the default fitness)."""
        ...

    def measure_repeated(self, source_text: str,
                         individual: Individual) -> List[float]:
        """Run :meth:`measure` under the plug-in's repetition/aggregation
        policy (identical to one ``measure`` call when repeats == 1)."""
        ...


class FitnessProtocol(Protocol):
    """What the evaluation layer needs from a fitness object (III.C)."""

    def get_fitness(self, measurements: Sequence[float],
                    individual: Individual) -> float:
        ...


class ScreenReportProtocol(Protocol):
    """Verdict shape returned by a static screen."""

    passed: bool
    assembly_failed: bool


class ScreenProtocol(Protocol):
    """What the evaluation layer needs from a pre-measurement static
    screen (see :class:`repro.staticcheck.screen.StaticScreen`)."""

    def screen(self, source_text: str,
               individual: Individual) -> ScreenReportProtocol:
        ...


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class StageTimings:
    """Cumulative wall-clock seconds spent per pipeline stage.

    Under a process-pool backend the stage clocks tick concurrently in
    the workers, so totals may exceed the generation's wall time — they
    are *work* accounting, not elapsed time.
    """

    render_s: float = 0.0
    screen_s: float = 0.0
    measure_s: float = 0.0
    score_s: float = 0.0

    def add(self, other: "StageTimings") -> None:
        self.render_s += other.render_s
        self.screen_s += other.screen_s
        self.measure_s += other.measure_s
        self.score_s += other.score_s

    @property
    def total_s(self) -> float:
        return self.render_s + self.screen_s + self.measure_s + self.score_s


@dataclass
class EvaluationResult:
    """Everything one trip through the pipeline produced.

    Results cross process boundaries (workers pickle them back to the
    driver), so they carry the individual's ``uid`` rather than the
    individual itself; the driver re-attaches measurements to *its*
    population objects during the deterministic uid-ordered merge.
    """

    uid: int
    source: str
    measurements: List[float]
    fitness: float
    compile_failed: bool = False
    screen_failed: bool = False
    cache_hit: bool = False
    timings: StageTimings = field(default_factory=StageTimings)
    #: Target-machine compile-cache traffic attributable to this
    #: evaluation (deltas around the screen and measure stages).
    #: Carried on the result because pool workers compile in *replica*
    #: machines whose counters the driver never sees.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0


class EmptyMeasurementError(ConfigError):
    """A measurement plug-in returned no values at all — a plug-in bug
    the engine turns into a checkpoint-then-abort so an hours-long run
    does not lose its partial generation."""


# ---------------------------------------------------------------------------
# Noise keying
# ---------------------------------------------------------------------------

#: Large odd constant decorrelating the GA seed from the source digest.
_NOISE_MIX = 0x9E3779B97F4A7C15


def noise_key(base_seed: int, source_text: str) -> int:
    """Deterministic per-source noise-substream key.

    Uses sha256 (not the salted builtin ``hash``) so every worker
    process derives the same key for the same rendered source, and so
    identical sources — elitism clones, cache hits — always observe
    identical measurement noise.
    """
    digest = hashlib.sha256(source_text.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big")
            ^ ((base_seed * _NOISE_MIX) & (2 ** 64 - 1)))


@functools.lru_cache(maxsize=None)
def _takes_compile(screen_type: type) -> bool:
    """Whether a screen class's ``screen`` accepts ``compile=``, the
    pipeline's shared compile path."""
    try:
        parameters = inspect.signature(screen_type.screen).parameters
    except (AttributeError, TypeError, ValueError):
        return False
    return "compile" in parameters


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class EvaluationPipeline:
    """Evaluates one individual through the staged pipeline.

    Parameters
    ----------
    template:
        The run's :class:`~repro.core.template.Template`.
    measurement, fitness:
        Plug-in objects satisfying the protocols above.  The
        measurement is validated eagerly: missing ``measure`` *or*
        ``measure_repeated`` raises :class:`ConfigError` at
        construction.
    screen:
        Optional pre-measurement static screen.
    noise_seed:
        Base seed mixed into each individual's noise-substream key
        (normally the GA seed, so one config+seed pins the whole run).

    On a simulated target without a translator, the pipeline takes
    ownership of the target's compile path: it installs its
    :attr:`splicer` as ``target.builder``, replacing any builder a
    previous pipeline installed there.  Splicers fall back to the full
    assembler for sources outside their template, so a shared target
    stays correct either way; it only loses the splicing speed-up.
    """

    def __init__(self, template: Template,
                 measurement: MeasurementProtocol,
                 fitness: FitnessProtocol,
                 screen: Optional[ScreenProtocol] = None,
                 noise_seed: int = 0) -> None:
        for required in ("measure", "measure_repeated"):
            if not callable(getattr(measurement, required, None)):
                raise ConfigError(
                    f"measurement {type(measurement).__name__!r} does not "
                    f"implement {required}(); MeasurementProtocol requires "
                    "both measure() and measure_repeated() — subclass "
                    "repro.measurement.base.Measurement or define both")
        if not callable(getattr(fitness, "get_fitness", None)):
            raise ConfigError(
                f"fitness {type(fitness).__name__!r} does not implement "
                "get_fitness()")
        self.template = template
        self.measurement = measurement
        self.fitness = fitness
        self.screen = screen
        self.noise_seed = noise_seed
        self._reseed = getattr(measurement, "reseed_noise", None)
        if self._reseed is not None and not callable(self._reseed):
            self._reseed = None
        #: Duck-typed handle to the simulated machine the pipeline
        #: compiles on; None for measurements without a simulated target.
        target = getattr(measurement, "target", None)
        self.machine = getattr(target, "machine", None)
        if not hasattr(self.machine, "compile_cache_hits"):
            self.machine = None
        #: The run's one template splicer: every Program the screen,
        #: the measurement and the batched backend need comes from the
        #: machine's compile cache, built through it.  None when the
        #: measurement has no simulated machine or its target
        #: translates sources before assembling them.
        self.splicer: Optional[TemplateSplicer] = None
        self._source_name = getattr(measurement, "source_name", None)
        if (getattr(self.machine, "assembler", None) is not None
                and isinstance(self._source_name, str)
                and getattr(target, "translator", None) is None):
            self.splicer = TemplateSplicer(template, self.machine.assembler)
            target.builder = self.splicer.compile

    # -- stages -------------------------------------------------------------

    def render(self, individual: Individual) -> str:
        """Stage 1: instantiate the template with the loop body."""
        return self.template.instantiate(individual.render_body())

    def compile(self, source: str) -> Program:
        """The Program the measurement runs for ``source``.

        Served from the machine's content-addressed compile cache under
        the measurement's ``source_name``, built through the run's
        splicer on a miss — so a source priced, screened and measured is
        assembled once.  Sources go through the target's translator
        first when it has one.  Requires a simulated machine.
        """
        target = self.measurement.target
        if target.translator is not None:
            return self.machine.compile(target.translator(source),
                                        name=self._source_name)
        return self.machine.compile(source, name=self._source_name,
                                    builder=self.splicer.compile)

    def run_screen(self, source: str,
                   individual: Individual) -> ScreenReportProtocol:
        """Stage 2: the static screen (requires ``self.screen``).

        A screen whose ``screen`` accepts a ``compile`` keyword (as
        :class:`~repro.staticcheck.screen.StaticScreen` does) takes its
        Program from :meth:`compile` when the pipeline has a simulated
        machine; other screens compile for themselves.
        """
        if self.machine is not None and _takes_compile(type(self.screen)):
            return self.screen.screen(source, individual,
                                      compile=self.compile)
        return self.screen.screen(source, individual)

    def compile_counters(self) -> tuple:
        """The machine's compile-cache (hits, misses) so far; zeros
        without a simulated machine."""
        machine = self.machine
        if machine is None:
            return 0, 0
        return machine.compile_cache_hits, machine.compile_cache_misses

    def score(self, measurements: Sequence[float],
              individual: Individual) -> float:
        """Stage 4, standalone — used for cache-hit replay."""
        return float(self.fitness.get_fitness(measurements, individual))

    def evaluate(self, individual: Individual,
                 source: Optional[str] = None) -> EvaluationResult:
        """Run the full pipeline for one individual.

        ``source`` may be pre-rendered by the driver (it renders
        eagerly for cache lookups); the render stage is then skipped
        and its time is accounted on the driver side.

        Raises :class:`EmptyMeasurementError` when the measurement
        returns an empty list — executor backends convert this into an
        in-band result item so the driver can checkpoint the partial
        generation before aborting.
        """
        timings = StageTimings()
        if source is None:
            began = perf_counter()  # staticcheck: disable=SC404
            source = self.render(individual)
            timings.render_s += perf_counter() - began  # staticcheck: disable=SC404
        before = self.compile_counters()
        result = self.screen_stage(individual, source, timings)
        if result is None:
            began = perf_counter()  # staticcheck: disable=SC404
            if self._reseed is not None:
                self._reseed(noise_key(self.noise_seed, source))
            try:
                measurements = self.measurement.measure_repeated(
                    source, individual)
            except AssemblyError:
                result = self.rejected(individual, source, timings,
                                       compile_failed=True)
            timings.measure_s += perf_counter() - began  # staticcheck: disable=SC404
        if result is None:
            result = self.scored(individual, source, measurements, timings)
        result.compile_cache_hits, result.compile_cache_misses = \
            self.compile_deltas(before)
        return result

    # -- stage steps shared with the batched backend ------------------------

    def screen_stage(self, individual: Individual, source: str,
                     timings: StageTimings) -> Optional[EvaluationResult]:
        """Stage 2 with its verdict: the zero-fitness result when the
        screen rejects ``source``, else None (also without a screen)."""
        if self.screen is None:
            return None
        began = perf_counter()  # staticcheck: disable=SC404
        report = self.run_screen(source, individual)
        timings.screen_s += perf_counter() - began  # staticcheck: disable=SC404
        if report.passed:
            return None
        # Same zero-fitness path as a compile failure, but the
        # individual never enters the pipeline model.
        return self.rejected(individual, source, timings,
                             compile_failed=report.assembly_failed,
                             screen_failed=True)

    def rejected(self, individual: Individual, source: str,
                 timings: StageTimings, compile_failed: bool,
                 screen_failed: bool = False) -> EvaluationResult:
        """The zero-fitness result of a screen or assembly failure."""
        return EvaluationResult(
            uid=individual.uid, source=source, measurements=[0.0],
            fitness=0.0, compile_failed=compile_failed,
            screen_failed=screen_failed, timings=timings)

    def scored(self, individual: Individual, source: str,
               measurements: Sequence[float],
               timings: StageTimings) -> EvaluationResult:
        """Stage 4: score ``measurements`` into the individual's result.

        Raises :class:`EmptyMeasurementError`, naming the individual,
        when ``measurements`` is empty.
        """
        if not measurements:
            raise EmptyMeasurementError(
                f"measurement {type(self.measurement).__name__!r} returned "
                f"an empty result list for individual "
                f"uid={individual.uid} in generation "
                f"{individual.generation}")
        began = perf_counter()  # staticcheck: disable=SC404
        value = self.score(measurements, individual)
        timings.score_s += perf_counter() - began  # staticcheck: disable=SC404
        return EvaluationResult(
            uid=individual.uid, source=source,
            measurements=list(measurements), fitness=value,
            timings=timings)

    def compile_deltas(self, before: tuple) -> tuple:
        """Compile-cache (hits, misses) since ``before``, a
        :meth:`compile_counters` reading."""
        hits, misses = self.compile_counters()
        return hits - before[0], misses - before[1]
