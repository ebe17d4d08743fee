"""Population execution: one pipeline trace per program.

Every trace comes from the one scheduler,
:class:`~repro.cpu.pipeline.PipelineSimulator`; this helper only loops
it over a population.  It stays as its own function because
``perfbench/trace_spans.py`` times population simulation by wrapping
``repro.cpu.batch.simulate_population`` by name and fails when that
name is missing.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa.model import Program
from .microarch import MicroArch
from .pipeline import ExecutionTrace, PipelineSimulator

__all__ = ["simulate_population"]


def simulate_population(programs: Sequence[Program], arch: MicroArch,
                        max_cycles: int,
                        detect_steady_state: bool = True
                        ) -> List[ExecutionTrace]:
    """``PipelineSimulator(arch).execute(program, max_cycles)`` for each
    program, in input order (no memory hierarchy)."""
    simulator = PipelineSimulator(arch, detect_steady_state)
    return [simulator.execute(program, max_cycles) for program in programs]
