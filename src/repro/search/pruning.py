"""Prune-to-top-fraction search: one wrapper core, pluggable scorers.

Full simulation dominates a GeST search's wall-clock, so a wrapper
strategy can spend less by simulating only the best-predicted
offspring.  :class:`PruningStrategy` composes with any registered base
strategy (default: the paper's GA) and interposes on its proposals:

1. the base strategy proposes the next generation as usual (same RNG
   stream, same uid allocation — the wrapper's only randomness is the
   generation-keyed ε stream below);
2. offspring whose exact genome was already simulated replay their
   recorded measurements (the per-source noise substream makes a
   re-measurement bit-identical, so the replay is exact);
3. a scorer may pass some offspring straight through (the learned
   scorer's evaluation-cache warm hits) and predicts the fitness of
   the rest; a scorer that cannot rank yet predicts nothing and every
   offspring is simulated;
4. the top ``top_fraction`` by prediction are simulated, an ε-draw may
   promote pruned candidates anyway, and the remainder get placeholder
   fitnesses strictly inside ``(floor - 1, floor)`` in predicted order
   — comparable under tournament selection, but never above a
   measured individual or the run's best;
5. ``observe`` memoises the measured genomes, lowers the floor, lets
   the scorer learn, and records how well the predictions ranked the
   simulated fitnesses (Spearman over finite predictions) for
   ``stats.jsonl``.

Generation 0 is always fully simulated: it anchors the search.  Two
scorers plug in: the static cost model (:mod:`repro.search.static_rank`)
and an online-learned ridge model (:mod:`repro.search.surrogate`).
Both price the Program the run measures, built through the run's one
compile path (:meth:`~repro.evaluation.pipeline.EvaluationPipeline.compile`).
"""

from __future__ import annotations

import math
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..core.population import Population
from ..cpu.microarch import microarch_for
from ..isa.model import Program
from ..staticcheck.configlint import detect_syntax
from ..staticcheck.costmodel import spearman
from .base import STRATEGIES, SearchStrategy

__all__ = ["PruningStrategy"]

#: Default microarchitecture per SimISA syntax when the ``platform``
#: parameter is omitted: the stock CLI platform for ARM templates, the
#: only x86 preset otherwise.  Ranking survives a latency-table
#: mismatch (only the ordering matters), but configs searching a
#: specific platform should name it.
_DEFAULT_PLATFORM = {"arm": "cortex_a15", "x86": "athlon_x4"}

#: Golden-ratio mixing constant decorrelating the exploration stream
#: from the GA seed (same constant as the evaluation noise keying).
_EXPLORE_MIX = 0x9E3779B97F4A7C15


def checked(cast, valid, message: str):
    """A ``PARAMS`` parser: ``cast`` the value, then require ``valid``."""
    def parse(value):
        parsed = cast(value)
        if not valid(parsed):
            raise ValueError(message)
        return parsed
    return parse


def optional_text(value) -> Optional[str]:
    if value is None:
        return None
    text = str(value).strip()
    return text or None


fraction = checked(float, lambda f: 0.0 < f <= 1.0,
                   "top_fraction must be in (0, 1]")


class PruningStrategy(SearchStrategy):
    """The shared wrapper core; subclasses are the scorers.

    A subclass declares ``PARAMS`` (at least ``base``, ``platform`` and
    ``top_fraction``; ``epsilon`` when it explores, else ε is 0) and
    implements the scorer hooks: :meth:`_bind_scorer`,
    :meth:`_predict`, :meth:`_predict_known`, and optionally
    :meth:`_pass_through`, :meth:`_learn`, :meth:`_telemetry` and the
    ``_scorer_state`` pair.
    """

    #: ``state_dict`` key of the uid → prediction map.
    _PENDING_KEY = "pending_predictions"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Every wrapper owns its copy of the contract methods, so that
        # per-class instrumentation (perfbench's span tracer wraps the
        # methods a registered strategy defines itself) sees them.
        for attr in ("initial_population", "next_population", "observe"):
            setattr(cls, attr, vars(PruningStrategy)[attr])

    def _bound(self) -> None:
        if self.params["base"] == self.name:
            raise ConfigError(
                f"search strategy {self.name!r} cannot wrap itself; "
                "pick a concrete base strategy (e.g. base=\"genetic\")",
                diagnostic_code="SC210")
        self._base: SearchStrategy = STRATEGIES.get(self.params["base"])(None)
        self._base.bind(self.config, self.rng, self._take_uid)

        platform = self.params["platform"]
        if platform is None:
            syntax = detect_syntax(self.config.template_text)
            if syntax is None:
                raise ConfigError(
                    f"search strategy {self.name!r} cannot infer the "
                    "target platform: the template assembles under "
                    "neither SimISA syntax; set the 'platform' "
                    "parameter explicitly", diagnostic_code="SC210")
            platform = _DEFAULT_PLATFORM[syntax]
        self._arch = microarch_for(platform)
        self._epsilon = self.params.get("epsilon", 0.0)

        # Wrapper state (all checkpointed via state_dict):
        #: genome key -> (measurements, fitness, compile_failed,
        #: screen_failed) of every simulated individual seen so far.
        self._memo: Dict[Tuple, Tuple] = {}
        #: Lowest simulated fitness observed; placeholder fitnesses of
        #: pruned candidates live strictly below it.
        self._floor = 0.0
        #: uid -> predicted fitness of this generation's candidates that
        #: will carry a real fitness (feeds the Spearman record).
        self._pending: Dict[int, float] = {}
        self._pruned_uids: set = set()
        self._replayed = 0
        self._selected = 0
        #: Stay 0 for a scorer without ε or a pass-through; such a
        #: scorer leaves them out of its record and checkpoint.
        self._explored = 0
        self._warm_hits = 0
        self._last_metrics: Optional[Dict[str, Any]] = None
        self._pipeline = None  # the run's, set by warm_start
        self._bind_scorer()

    def warm_start(self, evaluator) -> None:
        """Take the evaluator's pipeline (the run's one compile path)
        and forward to the base strategy's own ``warm_start``, if any.
        """
        pipeline = evaluator.pipeline
        if pipeline.machine is None:
            raise ConfigError(
                f"search strategy {self.name!r} compiles candidates on "
                "the run's machine and needs a measurement on a simulated "
                "target", diagnostic_code="SC210")
        self._pipeline = pipeline
        base_warm_start = getattr(self._base, "warm_start", None)
        if callable(base_warm_start):
            base_warm_start(evaluator)

    def _compiled(self, individual: Individual
                  ) -> Tuple[str, Optional[Program]]:
        """``(rendered source, Program or None if it does not
        assemble)``, built through the run's compile path."""
        source = self._pipeline.render(individual)
        try:
            return source, self._pipeline.compile(source)
        except AssemblyError:
            return source, None

    # -- scorer hooks -------------------------------------------------------

    def _bind_scorer(self) -> None:
        """Build the scorer against the now-bound config and platform."""

    def _predict(self, individuals: List[Individual]) -> Dict[int, float]:
        """uid -> predicted fitness (-inf for unassemblable genomes, so
        they rank last); ``{}`` while the scorer cannot rank yet."""
        raise NotImplementedError

    def _predict_known(self, individual: Individual) -> Optional[float]:
        """Prediction for a replayed genome (widens the Spearman sample
        at no simulation cost), or None."""
        raise NotImplementedError

    def _pass_through(self, candidates: List[Individual]
                      ) -> List[Individual]:
        """Candidates to simulate without ranking or pruning."""
        return []

    def _learn(self, observed: List[Individual]) -> None:
        """Take in this generation's really evaluated individuals."""

    def _telemetry(self) -> Dict[str, Any]:
        """Scorer-specific fields of the per-generation record."""
        return {}

    def _scorer_state(self) -> Dict[str, Any]:
        return {}

    def _load_scorer_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`_scorer_state` output."""

    # -- the search contract ------------------------------------------------

    def initial_population(self) -> Population:
        population = self._base.initial_population()
        fresh = [i for i in population if not i.evaluated]
        self._pending = self._predict(fresh)
        self._pruned_uids = set()
        self._replayed = self._explored = self._warm_hits = 0
        self._selected = len(fresh)
        return population

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        children = self._base.next_population(population, next_number)
        pending: List[Individual] = []
        replayed: List[Individual] = []
        for child in children:
            if child.evaluated:
                continue
            hit = self._memo.get(child.genome_key())
            if hit is None:
                pending.append(child)
                continue
            measurements, fitness, compile_failed, screen_failed = hit
            child.record_evaluation(list(measurements), fitness,
                                    compile_failed=compile_failed,
                                    screen_failed=screen_failed)
            replayed.append(child)

        predictions = self._predict(pending)
        warm = self._pass_through(pending)
        warm_uids = {c.uid for c in warm}
        fresh = [c for c in pending if c.uid not in warm_uids]
        selected, explored, pruned = self._prune(fresh, predictions,
                                                 next_number)

        span = len(pruned) + 1
        for position, child in enumerate(pruned):
            placeholder = self._floor - 1.0 + (len(pruned) - position) / span
            child.record_evaluation([], placeholder)

        self._pending = {c.uid: predictions[c.uid]
                         for c in selected + explored + warm
                         if c.uid in predictions}
        for child in replayed:
            prediction = self._predict_known(child)
            if prediction is not None:
                self._pending[child.uid] = prediction
        self._pruned_uids = {c.uid for c in pruned}
        self._replayed = len(replayed)
        self._selected = len(selected) + len(explored)
        self._explored = len(explored)
        self._warm_hits = len(warm)
        return children

    def _prune(self, fresh: List[Individual], predictions: Dict[int, float],
               number: int
               ) -> Tuple[List[Individual], List[Individual],
                          List[Individual]]:
        """Split ``fresh`` into (simulated, ε-explored, pruned)."""
        if not predictions or self.params["top_fraction"] >= 1.0:
            return fresh, [], []
        ranked = sorted(fresh, key=lambda c: (-predictions[c.uid], c.uid))
        keep = max(1, math.ceil(self.params["top_fraction"]
                                * len(ranked))) if ranked else 0
        selected, rest = ranked[:keep], ranked[keep:]
        if not self._epsilon:
            return selected, [], rest
        # Each pruned candidate may be promoted anyway.  The draws come
        # from a generation-keyed stream — deterministic, resume-exact,
        # and invisible to the base strategy's RNG.
        explore_rng = Random(((self.config.ga.seed or 0) * _EXPLORE_MIX
                              + number) & (2 ** 64 - 1))
        explored: List[Individual] = []
        pruned: List[Individual] = []
        for child in rest:
            if explore_rng.random() < self._epsilon:
                explored.append(child)
            else:
                pruned.append(child)
        return selected, explored, pruned

    def observe(self, population: Population) -> None:
        self._base.observe(population)
        observed = [i for i in population if i.fitness is not None
                    and i.uid not in self._pruned_uids]
        for individual in observed:
            self._memo.setdefault(
                individual.genome_key(),
                (tuple(individual.measurements), individual.fitness,
                 individual.compile_failed, individual.screen_failed))
            self._floor = min(self._floor, individual.fitness)
        self._learn(observed)
        pairs = [(self._pending[i.uid], i.fitness) for i in observed
                 if math.isfinite(self._pending.get(i.uid, math.inf))]
        self._last_metrics = {
            "base": self._base.name,
            "platform": self._arch.name,
            "simulated": self._selected,
            "pruned": len(self._pruned_uids),
            "replayed": self._replayed,
            "spearman": spearman([p for p, _ in pairs],
                                 [f for _, f in pairs]),
            **self._telemetry(),
        }

    def generation_metrics(self, number: int) -> Optional[Dict[str, Any]]:
        """The surrogate record the engine attaches to
        :class:`~repro.core.engine.GenerationStats` (and stats.jsonl)."""
        return self._last_metrics

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "base_state": self._base.state_dict(),
            "memo": dict(self._memo),
            "floor": self._floor,
            self._PENDING_KEY: dict(self._pending),
            "pruned_uids": sorted(self._pruned_uids),
            "replayed": self._replayed,
            "selected": self._selected,
            "last_metrics": self._last_metrics,
            **self._scorer_state(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if not state:
            return
        self._base.load_state(state.get("base_state") or {})
        self._memo = dict(state.get("memo") or {})
        self._floor = state.get("floor", 0.0)
        self._pending = dict(state.get(self._PENDING_KEY) or {})
        self._pruned_uids = set(state.get("pruned_uids") or ())
        self._replayed = state.get("replayed", 0)
        self._selected = state.get("selected", 0)
        self._last_metrics = state.get("last_metrics")
        self._load_scorer_state(state)
