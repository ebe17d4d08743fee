"""Pluggable search strategies over the fixed evaluation core.

The paper's framework evolves stress-tests with a GA, but everything
below the search — template rendering, assembly, measurement, scoring —
is search-agnostic (and since PR 2 lives in :mod:`repro.evaluation`).
This package makes the search itself a swappable module, the way
MicroGrad centralises tuning mechanisms over a fixed evaluation core:

* :mod:`repro.search.registry` — named registries with
  list-the-choices / nearest-match error messages;
* :mod:`repro.search.operators` — selection, crossover, mutation and
  replacement operator registries (the GA's moving parts);
* :mod:`repro.search.base` — the :class:`SearchStrategy` contract and
  the strategy registry;
* strategies: ``genetic`` (the paper's GA, bit-identical to the
  pre-refactor engine), ``random`` (the paper's baseline),
  ``hill_climb`` and ``simulated_annealing``;
* :mod:`repro.search.pruning` — one wrapper that prunes any base
  strategy's offspring to the predicted-top fraction, with two
  scorers registered as strategies: ``static_rank`` (the static cost
  model) and ``surrogate`` (an online-learned ridge model, see
  :mod:`repro.surrogate`).

Importing this package registers every built-in operator and strategy.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .base import STRATEGIES, SearchStrategy
from .genetic import GeneticStrategy  # isort:skip — registration order
from .random_search import RandomStrategy  # isort:skip
from .hill_climb import HillClimbStrategy  # isort:skip
from .annealing import SimulatedAnnealingStrategy  # isort:skip
from .pruning import PruningStrategy  # isort:skip
from .static_rank import StaticRankStrategy  # isort:skip
from .surrogate import SurrogateStrategy  # isort:skip
from .operators import (CROSSOVER_OPERATORS, MUTATION_OPERATORS,
                        REPLACEMENT_POLICIES, SELECTION_OPERATORS)
from .registry import Registry, suggest

__all__ = [
    "Registry", "suggest",
    "SELECTION_OPERATORS", "CROSSOVER_OPERATORS", "MUTATION_OPERATORS",
    "REPLACEMENT_POLICIES", "STRATEGIES",
    "SearchStrategy", "GeneticStrategy", "RandomStrategy",
    "HillClimbStrategy", "SimulatedAnnealingStrategy",
    "PruningStrategy", "StaticRankStrategy", "SurrogateStrategy",
    "make_strategy",
]


def make_strategy(name: str,
                  params: Optional[Dict[str, Any]] = None
                  ) -> SearchStrategy:
    """Instantiate a registered strategy by name.

    ``params`` are the strategy's own parameters (the ``<search>``
    block attributes / ``<param>`` children); unknown names and bad
    values raise :class:`~repro.core.errors.ConfigError` with the valid
    choices listed.
    """
    cls = STRATEGIES.get(name)
    return cls(params)
