"""Pre-measurement static screening (the engine's correctness gate).

Measurement is the expensive part of a GeST search — the paper's runs
spend hours driving real hardware, and this reproduction's cycle-level
:mod:`repro.cpu` model is the analogous hot path.  The screen runs the
cheap static passes on each rendered individual *before* it enters that
path:

1. assemble the source (the toolchain front-end, no pipeline);
2. run the dataflow pass (:mod:`repro.staticcheck.dataflow`);
3. fail the individual when assembly fails or any diagnostic reaches
   ``fail_severity`` (default: error).

Failed individuals take the same zero-fitness route as
:class:`~repro.core.errors.AssemblyError` compile failures, but without
ever paying for pipeline simulation; the engine records them as screen
failures in :class:`~repro.core.engine.GenerationStats`.

Determinism note: the staged evaluation layer
(:mod:`repro.evaluation`) pins a per-source noise substream before
every measurement, so a screened individual skipping its measurement
can never shift the noise another individual observes — screening is
order-free by construction, under any executor backend and with the
evaluation cache on or off.  (Historically the machine drew noise from
one sequential stream, and only the default error-only policy kept
screened and unscreened runs bit-identical; that equivalence no longer
depends on the policy, so raising ``fail_severity`` to ``WARNING`` is
now purely a strictness choice.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.errors import AssemblyError
from ..isa.assembler import BaseAssembler
from ..isa.model import Program
# Not called here: perfbench/trace_spans.py wraps ``screen.analyze_cost``.
from .costmodel import analyze_cost  # noqa: F401
from .dataflow import (DEFAULT_LINE_BYTES, StaticProfile, analyze_program)
from .diagnostics import Diagnostic, Severity, make_diagnostic

__all__ = ["ScreenReport", "ScreenStats", "StaticScreen"]


@dataclass
class ScreenReport:
    """Verdict of one screening."""

    passed: bool
    #: True when the source failed to assemble (the classic compile
    #: failure); False for dataflow-diagnostic rejections.
    assembly_failed: bool
    diagnostics: List[Diagnostic] = field(default_factory=list)
    profile: Optional[StaticProfile] = None


@dataclass
class ScreenStats:
    """Cumulative counters, reported per generation by the engine."""

    screened: int = 0
    passed: int = 0
    assembly_failures: int = 0
    dataflow_failures: int = 0

    @property
    def failures(self) -> int:
        return self.assembly_failures + self.dataflow_failures


class StaticScreen:
    """The engine-facing screening object.

    Parameters
    ----------
    assembler:
        The SimISA front-end matching the target platform — screening
        with the wrong syntax would reject every individual.
    fail_severity:
        Minimum dataflow-diagnostic severity that fails an individual.
    l1_bytes / l2_bytes:
        Cache geometry for the footprint bound; None disables the
        corresponding check.
    """

    def __init__(self, assembler: BaseAssembler,
                 fail_severity: Severity = Severity.ERROR,
                 l1_bytes: Optional[int] = None,
                 l2_bytes: Optional[int] = None,
                 line_bytes: int = DEFAULT_LINE_BYTES) -> None:
        self.assembler = assembler
        self.fail_severity = fail_severity
        self.l1_bytes = l1_bytes
        self.l2_bytes = l2_bytes
        self.line_bytes = line_bytes
        self.stats = ScreenStats()

    @classmethod
    def for_machine(cls, machine, **kwargs) -> "StaticScreen":
        """A screen whose syntax *and* cache geometry match ``machine``.

        Threads the machine's configured hierarchy through to the
        footprint bound, so SC104 compares against the cache sizes the
        simulation actually uses instead of the stock defaults.
        Additional keyword arguments pass through to the constructor.
        """
        hierarchy = getattr(machine, "hierarchy", None)
        if hierarchy is not None:
            kwargs.setdefault("l1_bytes", hierarchy.l1_config.size_bytes)
            kwargs.setdefault("l2_bytes", hierarchy.l2_config.size_bytes)
            kwargs.setdefault("line_bytes", hierarchy.l1_config.line_bytes)
        return cls(machine.assembler, **kwargs)

    def screen(self, source_text: str, individual=None,
               compile: Optional[Callable[[str], Program]] = None
               ) -> ScreenReport:
        """Screen one rendered source; never raises on bad programs.

        ``compile`` optionally supplies the Program in place of the
        screen's own assembler; it must raise
        :class:`~repro.core.errors.AssemblyError` on bad code.  The
        evaluation pipeline passes its shared compile path here, so the
        Program screened is the one later measured.
        """
        self.stats.screened += 1
        name = f"uid{individual.uid}.s" if individual is not None \
            else "screened.s"
        try:
            if compile is not None:
                program = compile(source_text)
            else:
                program = self.assembler.assemble(source_text, name=name)
        except AssemblyError as exc:
            self.stats.assembly_failures += 1
            diagnostic = make_diagnostic(
                "SC201", f"source does not assemble: {exc}",
                severity=Severity.ERROR, file=name)
            return ScreenReport(passed=False, assembly_failed=True,
                                diagnostics=[diagnostic])

        report = analyze_program(program, l1_bytes=self.l1_bytes,
                                 l2_bytes=self.l2_bytes,
                                 line_bytes=self.line_bytes,
                                 source_file=name)
        passed = all(d.severity < self.fail_severity
                     for d in report.diagnostics)
        if passed:
            self.stats.passed += 1
        else:
            self.stats.dataflow_failures += 1
        return ScreenReport(passed=passed, assembly_failed=False,
                            diagnostics=report.diagnostics,
                            profile=report.profile)
