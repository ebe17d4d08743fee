"""Static-cost-model pruning in front of any strategy.

The static cost model prices a candidate for less than one simulated
measurement, which makes it a ready-made fitness proxy: ``static_rank``
is the :class:`~repro.search.pruning.PruningStrategy` whose scorer is
:func:`repro.staticcheck.costmodel.static_score` over the candidate's
Program, built through the run's one compile path.  The score is a
pure function of the genome, so it is memoised per genome and ranks
from generation 1 on; the wrapper never explores (ε = 0).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.individual import Individual
from ..staticcheck.costmodel import INTENT_PORTS, static_score
from .base import STRATEGIES
from .pruning import PruningStrategy, checked, fraction, optional_text

__all__ = ["StaticRankStrategy"]


@STRATEGIES.register("static_rank")
class StaticRankStrategy(PruningStrategy):
    """Static-cost-model pruning wrapped around a base strategy.

    Parameters
    ----------
    base:
        Registered name of the wrapped strategy (default ``genetic``).
    platform:
        Microarchitecture preset whose latency/port/energy tables price
        the candidates; defaults per the template's syntax.
    metric:
        What :func:`static_score` predicts — ``ipc`` or one of the
        power-family metrics (``power``/``energy``/``temperature``/
        ``didt``).  Default ``ipc``.
    top_fraction:
        Fraction of each generation's fresh offspring sent to full
        simulation (default 0.5); the rest are pruned with placeholder
        fitnesses.  Generation 0 is always fully measured — it anchors
        the search and the first Spearman record.
    """

    name = "static_rank"
    PARAMS = {
        "base": (str, "genetic"),
        "platform": (optional_text, None),
        "metric": (checked(str, INTENT_PORTS.__contains__,
                           "metric must be one of "
                           + ", ".join(INTENT_PORTS)), "ipc"),
        "top_fraction": (fraction, 0.5),
    }
    _PENDING_KEY = "pending_scores"

    def _bind_scorer(self) -> None:
        self._metric = self.params["metric"]
        #: genome key -> static score; elitism clones and replayed
        #: genomes recur every generation, so none is priced twice.
        self._score_memo: Dict[Tuple, float] = {}

    def _score(self, individual: Individual) -> float:
        """Static predicted fitness; -inf for unassemblable genomes
        (they would compile-fail to fitness 0 anyway)."""
        key = individual.genome_key()
        cached = self._score_memo.get(key)
        if cached is not None:
            return cached
        program = self._compiled(individual)[1]
        score = float("-inf") if program is None \
            else static_score(program, self._arch, self._metric)
        self._score_memo[key] = score
        return score

    def _predict(self, individuals: List[Individual]) -> Dict[int, float]:
        return {i.uid: self._score(i) for i in individuals}

    def _predict_known(self, individual: Individual) -> Optional[float]:
        return self._score(individual)

    def _telemetry(self) -> Dict[str, Any]:
        return {"metric": self._metric}

    def _scorer_state(self) -> Dict[str, Any]:
        return {"score_memo": dict(self._score_memo)}

    def _load_scorer_state(self, state: Dict[str, Any]) -> None:
        self._score_memo = dict(state.get("score_memo") or {})
