"""Workload definitions for the end-to-end search benchmark.

Each workload names a shipped configuration, a simulated platform and
the overrides that put the search in one execution regime.  Targets
are the fitness the timed search (the config's shipped GA seed) must
reach for ``time_to_target_s``.  They are fixed here and quoted in
each workload's ``why`` in ``BENCHMARK.json``, and were chosen so the
timed search reaches them midway, well before its last generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Seed used for confirmation runs only; no target or setting was
#: tuned on it.
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class Workload:
    name: str
    #: Directory under ``configs/`` holding config.xml + measurement.xml.
    config: str
    platform: str
    #: Unit of the fitness the measurement class reports.
    unit: str
    target: float
    strategy: Optional[str] = None
    population: Optional[int] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    #: Extra measurement parameters (e.g. ``repeats``).
    measurement: Dict[str, str] = field(default_factory=dict)
    #: Warm replays of the cold run (``service_replay`` only).
    replays: int = 0

    @property
    def service(self) -> bool:
        return self.replays > 0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ga_power_serial", config="arm_power", platform="cortex_a15",
             unit="W", target=1.52),
    Workload("ga_didt_population", config="x86_didt", platform="athlon_x4",
             unit="V", target=0.105, population=48, backend="auto",
             workers=2, measurement={"repeats": "3"}),
    Workload("ga_power_surrogate", config="arm_power",
             platform="cortex_a15", unit="W", target=1.52,
             strategy="surrogate"),
    Workload("service_replay", config="arm_ipc", platform="xgene2",
             unit="IPC", target=3.5, replays=20),
)}
