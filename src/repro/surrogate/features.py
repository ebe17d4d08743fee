"""Candidate featurization for the surrogate fitness model.

Turns an :class:`~repro.core.individual.Individual` into the flat
``name → float`` row the :class:`~repro.surrogate.model.RidgeModel`
trains on.  Everything is reused machinery:

* the static side is :func:`repro.staticcheck.costmodel.analyze_cost`'s
  :meth:`~repro.staticcheck.costmodel.StaticCostReport.as_features` —
  instruction-mix ratios, dependence-chain shape, the SC3xx critical
  path / port pressure / IPC-energy bands;
* the optional dynamic side is one
  :class:`~repro.evaluation.probe.ShortProbe` pass — a ~1.6k-cycle
  batched simulation contributing ``probe_*`` observables at a small
  fraction of a full measurement's cycle budget.

Unassemblable genomes featurize to ``None``: they would compile-fail
to zero fitness anyway, so the surrogate ranks them last without
spending a probe on them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import AssemblyError
from ..core.individual import Individual
from ..core.template import Template
from ..cpu.microarch import MicroArch
from ..evaluation.probe import ShortProbe
from ..isa import assembler_for
from ..staticcheck.costmodel import analyze_cost

__all__ = ["SurrogateFeaturizer"]


class SurrogateFeaturizer:
    """Renders, assembles and prices candidates into feature rows.

    Parameters
    ----------
    template_text:
        The run's template (the candidate body is spliced into it, so
        features describe the *whole* measured loop, prologue included).
    arch:
        Microarchitecture whose latency/port/energy tables price the
        static features (and whose preset the probe machine runs).
    probe_cycles:
        0 disables the dynamic probe; otherwise the per-candidate probe
        cycle budget (see :class:`~repro.evaluation.probe.ShortProbe`).
    """

    def __init__(self, template_text: str, arch: MicroArch,
                 probe_cycles: int = 0) -> None:
        self.arch = arch
        self._template = Template(template_text)
        self._assembler = assembler_for(arch.isa)
        self._probe = ShortProbe(arch.name, cycles=probe_cycles) \
            if probe_cycles else None

    @property
    def probes(self) -> bool:
        return self._probe is not None

    def featurize_batch(self, individuals: Sequence[Individual]
                        ) -> List[Tuple[str, Optional[Dict[str, float]]]]:
        """``(rendered source, feature row or None)`` per individual.

        The probe (when enabled) runs once for the whole batch, at a
        fraction of a full measurement's cycle budget.
        """
        sources: List[str] = []
        programs: List = []
        rows: List[Optional[Dict[str, float]]] = []
        for individual in individuals:
            source = self._template.instantiate(individual.render_body())
            sources.append(source)
            try:
                program = self._assembler.assemble(
                    source, name=f"uid{individual.uid}.s")
            except AssemblyError:
                programs.append(None)
                rows.append(None)
                continue
            programs.append(program)
            rows.append(analyze_cost(program, self.arch)
                        .cost.as_features())

        if self._probe is not None:
            assembled = [(i, program) for i, program in enumerate(programs)
                         if program is not None]
            probed = self._probe.probe_batch(
                [program for _, program in assembled],
                [sources[i] for i, _ in assembled])
            for (index, _), extra in zip(assembled, probed):
                rows[index].update(extra)
        return list(zip(sources, rows))
