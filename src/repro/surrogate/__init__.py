"""Learned fitness surrogates (the ROADMAP's NeuroScalar direction).

Full cycle-accurate evaluation dominates a GeST search's wall-clock.
This package provides the pieces for predicting a candidate's fitness
*without* simulating it, so a search can pay full measurement for only
the most promising fraction of each generation:

* :class:`~repro.surrogate.model.RidgeModel` — dependency-free
  closed-form ridge regression (optional bucketed residual boost),
  online-refit from the observed (features, fitness) pairs;
* :class:`~repro.surrogate.features.SurrogateFeaturizer` — candidate →
  feature row, combining the static cost model's
  :meth:`~repro.staticcheck.costmodel.StaticCostReport.as_features`
  with an optional batched
  :class:`~repro.evaluation.probe.ShortProbe` pass.

The consumer is the learned scorer of the pruning wrapper — the
``surrogate`` search strategy (:mod:`repro.search.surrogate`), which
composes these with any base strategy.
"""

from __future__ import annotations

from .features import SurrogateFeaturizer
from .model import RidgeModel

__all__ = ["RidgeModel", "SurrogateFeaturizer"]
