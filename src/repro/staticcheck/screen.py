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
from .costmodel import StaticCostReport, analyze_cost
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
    #: Steady-state kernel of the loop, when the screen was built with
    #: a period probe and the program assembled: warm-up cycles before
    #: the kernel and the kernel length in cycles.  None when probing
    #: is off, assembly failed, or no recurrence was found.
    detected_prefix: Optional[int] = None
    detected_period: Optional[int] = None
    #: Static cost report, when the screen runs in static-rank mode
    #: (built with ``arch=...``) and the program assembled.  The
    #: ``static_rank`` strategy reads ``cost.predicted_metric(...)``
    #: to order candidates before simulation.
    cost: Optional[StaticCostReport] = None


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
    period_probe:
        Optional object with a ``detect_period(program, max_cycles)``
        method (duck-typed to
        :meth:`repro.cpu.pipeline.PipelineSimulator.detect_period`).
        When given, programs that pass the static checks are also
        probed for their steady-state kernel — cheap, because the probe
        stops at the first scheduler-state recurrence — and the result
        is reported on :class:`ScreenReport` for analysis tooling.
    probe_cycles:
        Cycle budget handed to the probe (default 1600, the stock
        ``sim_cycles``).
    arch:
        Optional :class:`~repro.cpu.microarch.MicroArch`.  When given,
        the screen runs in *static-rank mode*: programs that assemble
        also get the static cost model pass and the report lands on
        :attr:`ScreenReport.cost` — the strategy-facing fitness proxy.
    intent:
        Fitness metric name forwarded to the cost model so SC302/SC303
        can fire during screening (static-rank mode only).
    """

    def __init__(self, assembler: BaseAssembler,
                 fail_severity: Severity = Severity.ERROR,
                 l1_bytes: Optional[int] = None,
                 l2_bytes: Optional[int] = None,
                 line_bytes: int = DEFAULT_LINE_BYTES,
                 period_probe=None,
                 probe_cycles: int = 1600,
                 arch=None,
                 intent: Optional[str] = None) -> None:
        self.assembler = assembler
        self.fail_severity = fail_severity
        self.l1_bytes = l1_bytes
        self.l2_bytes = l2_bytes
        self.line_bytes = line_bytes
        self.period_probe = period_probe
        self.probe_cycles = probe_cycles
        self.arch = arch
        self.intent = intent
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

        if self.arch is not None:
            cost_report = analyze_cost(
                program, self.arch, l1_bytes=self.l1_bytes,
                l2_bytes=self.l2_bytes, line_bytes=self.line_bytes,
                source_file=name, intent=self.intent)
            diagnostics = cost_report.diagnostics
            profile: StaticProfile = cost_report.cost
            cost: Optional[StaticCostReport] = cost_report.cost
        else:
            report = analyze_program(program, l1_bytes=self.l1_bytes,
                                     l2_bytes=self.l2_bytes,
                                     line_bytes=self.line_bytes,
                                     source_file=name)
            diagnostics = report.diagnostics
            profile = report.profile
            cost = None
        failing = [d for d in diagnostics
                   if d.severity >= self.fail_severity]
        if failing:
            self.stats.dataflow_failures += 1
            return ScreenReport(passed=False, assembly_failed=False,
                                diagnostics=diagnostics,
                                profile=profile, cost=cost)
        self.stats.passed += 1
        prefix = period = None
        if self.period_probe is not None:
            kernel = self.period_probe.detect_period(
                program, max_cycles=self.probe_cycles)
            if kernel is not None:
                prefix, period = kernel
        return ScreenReport(passed=True, assembly_failed=False,
                            diagnostics=diagnostics,
                            profile=profile,
                            detected_prefix=prefix,
                            detected_period=period,
                            cost=cost)
