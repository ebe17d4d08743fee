"""Candidate featurization for the surrogate fitness model.

Turns a candidate's Program — from the run's one compile path, so the
whole measured loop, prologue included — into the flat ``name → float``
row the :class:`~repro.surrogate.model.RidgeModel` trains on.
Everything is reused machinery:

* the static side is :func:`repro.staticcheck.costmodel.analyze_cost`'s
  :meth:`~repro.staticcheck.costmodel.StaticCostReport.as_features` —
  instruction-mix ratios, dependence-chain shape, the SC3xx critical
  path / port pressure / IPC-energy bands;
* the optional dynamic side is one
  :class:`~repro.evaluation.probe.ShortProbe` pass — a ~1.6k-cycle
  batched simulation contributing ``probe_*`` observables at a small
  fraction of a full measurement's cycle budget.

Unassemblable genomes (no Program) featurize to ``None``: they would
compile-fail to zero fitness anyway, so the surrogate ranks them last
without spending a probe on them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cpu.microarch import MicroArch
from ..evaluation.probe import ShortProbe
from ..isa.model import Program
from ..staticcheck.costmodel import analyze_cost

__all__ = ["SurrogateFeaturizer"]


class SurrogateFeaturizer:
    """Prices compiled candidates into feature rows.

    Parameters
    ----------
    arch:
        Microarchitecture whose latency/port/energy tables price the
        static features (and whose preset the probe machine runs).
    probe_cycles:
        0 disables the dynamic probe; otherwise the per-candidate probe
        cycle budget (see :class:`~repro.evaluation.probe.ShortProbe`).
    """

    def __init__(self, arch: MicroArch, probe_cycles: int = 0) -> None:
        self.arch = arch
        self._probe = ShortProbe(arch.name, cycles=probe_cycles) \
            if probe_cycles else None

    @property
    def probes(self) -> bool:
        return self._probe is not None

    def featurize_batch(self, compiled: Sequence[Tuple[str, Optional[Program]]]
                        ) -> List[Optional[Dict[str, float]]]:
        """One feature row (None without a Program) per
        ``(rendered source, Program or None)`` pair.

        The probe (when enabled) runs once for the whole batch, at a
        fraction of a full measurement's cycle budget; the rendered
        sources key its noise substreams.
        """
        rows = [None if program is None
                else analyze_cost(program, self.arch).cost.as_features()
                for _, program in compiled]
        if self._probe is not None:
            assembled = [(row, pair) for row, pair in zip(rows, compiled)
                         if row is not None]
            probed = self._probe.probe_batch(
                [program for _, (_, program) in assembled],
                [source for _, (source, _) in assembled])
            for (row, _), extra in zip(assembled, probed):
                row.update(extra)
        return rows
