"""Batched short-run probe: cheap dynamic features for surrogates.

Static features (:mod:`repro.staticcheck.costmodel`) bound what a
candidate *could* do; a short simulated run shows what it actually
does.  :class:`ShortProbe` runs a whole offspring pool for a small
cycle budget (~1.6k cycles by default, a fraction of a full
measurement's budget) through
:meth:`~repro.cpu.machine.BatchedMachine.run_batch`, so the entire
generation probes in one batch: one scheduler call per distinct
program and one stacked energy pass.

Determinism: the probe machine is private (fixed seed, bare-metal
environment) and every program's noise stream is keyed by its rendered
source via :func:`~repro.evaluation.pipeline.noise_key` — probe
features are a pure function of the source text, independent of batch
order, backend, or checkpoint resume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..cpu.machine import BatchedMachine, SimulatedMachine
from .pipeline import noise_key

__all__ = ["ShortProbe", "PROBE_FEATURE_NAMES"]

#: The feature names one probe contributes, in emission order.
PROBE_FEATURE_NAMES = ("probe_ipc", "probe_power_w", "probe_vpp",
                       "probe_temp_c")


class ShortProbe:
    """Short-run dynamic feature extractor over a private machine.

    Parameters
    ----------
    platform:
        Microarchitecture preset name (``cortex_a15``, ...).
    cycles:
        Simulated cycle budget per probe run (floored to the machine's
        100-cycle minimum).
    seed:
        Seed of the private probe machine.  Fixed per strategy so probe
        features never depend on how many probes ran before.
    """

    def __init__(self, platform: str, cycles: int = 1600,
                 seed: int = 0) -> None:
        self.platform = platform
        self.cycles = max(100, int(cycles))
        self.seed = int(seed)
        machine = SimulatedMachine(platform, environment="bare_metal",
                                   seed=self.seed,
                                   sim_cycles=self.cycles)
        self._batch = BatchedMachine(machine)

    def probe_batch(self, programs: Sequence,
                    sources: Sequence[str]) -> List[Dict[str, float]]:
        """One feature dict per program, batch-simulated in one pass.

        ``sources`` are the rendered source texts the programs were
        assembled from; they key each program's noise substream.
        """
        if len(programs) != len(sources):
            raise ValueError("need one source per program")
        if not programs:
            return []
        keys = [noise_key(self.seed, source) for source in sources]
        rounds = self._batch.run_batch(list(programs), duration_s=1.0,
                                       power_sample_count=4,
                                       noise_keys=keys)
        features: List[Dict[str, float]] = []
        for per_program in rounds:
            run = per_program[0]
            features.append({
                "probe_ipc": float(run.ipc),
                "probe_power_w": float(run.core_power_w),
                "probe_vpp": float(run.peak_to_peak_v),
                "probe_temp_c": float(run.temperature_c),
            })
        return features
