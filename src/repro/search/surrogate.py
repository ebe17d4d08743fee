"""Learned-model pruning in front of any strategy.

``surrogate`` is the :class:`~repro.search.pruning.PruningStrategy`
whose scorer is learned, the NeuroScalar way: a ridge regression
(:class:`~repro.surrogate.model.RidgeModel`) over static cost-model
features plus an optional short-probe vector
(:class:`~repro.surrogate.features.SurrogateFeaturizer`), refit every
generation from the fitnesses the run has actually observed — the
model keeps improving as the search runs.

What the learned scorer adds to the shared core:

* feature rows are memoised per genome, and each generation's new
  genomes are featurized in one batch (one probe pass);
* until the model has seen ``min_train`` rows it predicts nothing, so
  the warm-up generations are fully simulated and seed the training
  set;
* offspring whose rendered source sits in the evaluation cache pass
  straight through — the evaluator replays them for free and their
  observed fitness becomes training data (the cache snapshot is read
  once via ``iter_entries()`` at warm start);
* ε-exploration promotes a few pruned candidates to keep the training
  set unbiased at the cheap end of the ranking.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.individual import Individual
from ..surrogate import RidgeModel, SurrogateFeaturizer
from .base import STRATEGIES
from .pruning import PruningStrategy, checked, fraction, optional_text

__all__ = ["SurrogateStrategy"]


@STRATEGIES.register("surrogate")
class SurrogateStrategy(PruningStrategy):
    """Learned-model pruning wrapped around a base strategy.

    Parameters
    ----------
    base:
        Registered name of the wrapped strategy (default ``genetic``).
    platform:
        Microarchitecture preset whose tables price the static features
        (and whose preset the probe runs); defaults per the template's
        syntax, like ``static_rank``.
    top_fraction:
        Fraction of each generation's fresh offspring sent to full
        simulation once the model is trained (default 0.4).
    epsilon:
        Per-candidate probability that a pruned offspring is promoted
        to simulation anyway (default 0.1) — exploration keeps the
        training set unbiased at the cheap end of the ranking.  Drawn
        from a dedicated generation-keyed stream so the base strategy's
        RNG draws stay untouched.
    probe:
        Short-probe cycle budget per fresh candidate (0 = static
        features only).  The default 400 keeps the probe a quarter of
        the default full-measurement budget while roughly tripling the
        rank correlation over static-only features; whole generations
        probe in one batched pass either way.
    l2:
        Ridge penalty of the model (default 1.0).
    boost:
        Bucketed-residual boost bucket count (0 = plain ridge).
    min_train:
        Observed rows required before the model starts pruning
        (default 8); until then every candidate is simulated.
    """

    name = "surrogate"
    PARAMS = {
        "base": (str, "genetic"),
        "platform": (optional_text, None),
        "top_fraction": (fraction, 0.4),
        "epsilon": (checked(float, lambda p: 0.0 <= p <= 1.0,
                            "epsilon must be in [0, 1]"), 0.1),
        "probe": (checked(int, lambda n: n >= 0, "must be >= 0"), 400),
        "l2": (checked(float, lambda x: x > 0.0, "must be > 0"), 1.0),
        "boost": (checked(int, lambda n: n >= 0, "must be >= 0"), 0),
        "min_train": (checked(int, lambda n: n >= 1, "must be >= 1"), 8),
    }

    def _bind_scorer(self) -> None:
        self._featurizer = SurrogateFeaturizer(
            self._arch, probe_cycles=self.params["probe"])
        self._model = RidgeModel(l2=self.params["l2"],
                                 boost_buckets=self.params["boost"])
        # Evaluation-cache snapshot (populated by warm_start):
        self._cache = None
        self._warm_entries: Dict[str, Any] = {}
        #: uid -> rendered source of this generation's newly featurized
        #: candidates (the cache key of the warm-start pass-through).
        self._sources: Dict[int, str] = {}

        # Scorer state (all checkpointed via state_dict):
        #: genome key -> feature row, so no genome is featurized twice.
        self._feature_memo: Dict[Tuple, Dict[str, float]] = {}
        #: The observed training set; rows deduplicate on genome key.
        self._train_rows: List[Dict[str, float]] = []
        self._train_targets: List[float] = []
        self._trained_keys: set = set()
        #: uid -> feature row of this generation's candidates.
        self._pending_features: Dict[int, Dict[str, float]] = {}

    def warm_start(self, evaluator) -> None:
        """Take the pipeline (see the core's ``warm_start``), then
        snapshot the evaluator's cache for the warm-start path.

        The snapshot is one bulk ``iter_entries()`` read — never a
        per-genome lookup — so a sqlite-backed
        :class:`~repro.store.sharedcache.SharedEvaluationCache` costs
        one SELECT, not one per offspring.
        """
        super().warm_start(evaluator)
        cache = getattr(evaluator, "cache", None)
        self._cache = cache
        self._warm_entries = {}
        iterator = getattr(cache, "iter_entries", None)
        if callable(iterator):
            self._warm_entries = dict(iterator())

    # -- scorer hooks -------------------------------------------------------

    def _predict(self, individuals: List[Individual]) -> Dict[int, float]:
        fresh = [i for i in individuals
                 if i.genome_key() not in self._feature_memo]
        compiled = [self._compiled(i) for i in fresh]
        self._sources = {individual.uid: source for individual, (source, _)
                         in zip(fresh, compiled)}
        for individual, row in zip(
                fresh, self._featurizer.featurize_batch(compiled)):
            if row is not None:
                self._feature_memo[individual.genome_key()] = row
        rows = {i.uid: self._feature_memo.get(i.genome_key())
                for i in individuals}
        self._pending_features = {uid: row for uid, row in rows.items()
                                  if row is not None}
        if not self._model.fitted:
            return {}
        return {uid: float("-inf") if row is None
                else self._model.predict(row) for uid, row in rows.items()}

    def _predict_known(self, individual: Individual) -> Optional[float]:
        row = self._feature_memo.get(individual.genome_key())
        if row is None or not self._model.fitted:
            return None
        return self._model.predict(row)

    def _pass_through(self, candidates: List[Individual]
                      ) -> List[Individual]:
        if not self._warm_entries:
            return []
        return [c for c in candidates if c.uid in self._sources
                and self._cache.key(self._sources[c.uid])
                in self._warm_entries]

    def _learn(self, observed: List[Individual]) -> None:
        for individual in observed:
            key = individual.genome_key()
            row = self._pending_features.get(individual.uid)
            if row is not None and key not in self._trained_keys:
                self._trained_keys.add(key)
                self._train_rows.append(row)
                self._train_targets.append(individual.fitness)
        if len(self._train_rows) >= self.params["min_train"]:
            self._model.fit(self._train_rows, self._train_targets)

    def _telemetry(self) -> Dict[str, Any]:
        return {"warm_hits": self._warm_hits, "explored": self._explored,
                "training_size": len(self._train_rows),
                "probe": self.params["probe"]}

    # -- checkpoint support -------------------------------------------------

    def _scorer_state(self) -> Dict[str, Any]:
        return {
            "feature_memo": dict(self._feature_memo),
            "train_rows": list(self._train_rows),
            "train_targets": list(self._train_targets),
            "trained_keys": sorted(self._trained_keys),
            "pending_features": dict(self._pending_features),
            "explored": self._explored,
            "warm_hits": self._warm_hits,
            "model": self._model.state_dict(),
        }

    def _load_scorer_state(self, state: Dict[str, Any]) -> None:
        self._feature_memo = dict(state.get("feature_memo") or {})
        self._train_rows = list(state.get("train_rows") or [])
        self._train_targets = list(state.get("train_targets") or [])
        self._trained_keys = set(
            tuple(key) if isinstance(key, list) else key
            for key in state.get("trained_keys") or ())
        self._pending_features = dict(state.get("pending_features") or {})
        self._explored = state.get("explored", 0)
        self._warm_hits = state.get("warm_hits", 0)
        self._model.load_state(state.get("model"))
