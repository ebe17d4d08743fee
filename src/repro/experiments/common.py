"""Shared experiment harness.

Every paper experiment follows the same recipe: configure a GA search
for a (platform, metric) pair, evolve a virus, then score the virus and
the relevant baseline workloads with one instance per core (Section IV
methodology: "GA searches are performed on a single core ... a virus is
tested by running it on all cores").

GA runs are memoised per (platform, metric, seed, scale) so a virus
evolved for Figure 5 is reused by Table III without re-running the
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..core.config import GAParameters, RunConfig
from ..core.engine import GeneticEngine, RunHistory
from ..core.individual import Individual
from ..cpu.machine import RunResult, SimulatedMachine
from ..cpu.target import SimulatedTarget
from ..fitness.default_fitness import DefaultFitness
from ..isa.catalogs import library_for, template_for
from ..measurement.base import Measurement
from ..measurement.ipc import IPCMeasurement
from ..measurement.oscilloscope import OscilloscopeMeasurement
from ..measurement.power import PowerMeasurement
from ..measurement.temperature import TemperatureMeasurement
from ..search import SearchStrategy
from ..workloads.library import workload

__all__ = ["GAScale", "VirusResult", "make_machine", "make_engine",
           "evolve_virus", "score_baselines", "clear_virus_cache",
           "MEASUREMENTS"]

MEASUREMENTS: Dict[str, type] = {
    "power": PowerMeasurement,
    "temperature": TemperatureMeasurement,
    "ipc": IPCMeasurement,
    "didt": OscilloscopeMeasurement,
}

#: Environments per platform, matching Table II.
_PLATFORM_ENV = {
    "cortex_a15": "bare_metal",
    "cortex_a7": "bare_metal",
    "cortex_a57": "bare_metal",
    "xgene2": "os",
    "athlon_x4": "os",
}


@dataclass(frozen=True)
class GAScale:
    """Search effort.  The paper uses population 50 for 70–100
    generations (hours of wall time on hardware); the default here is a
    scaled-down search that converges on the simulated targets in tens
    of seconds while preserving every qualitative outcome."""

    population_size: int = 24
    generations: int = 30
    individual_size: int = 50
    mutation_rate: Optional[float] = None   # default: ~1 mutation/indiv
    samples: int = 8

    def effective_mutation_rate(self) -> float:
        if self.mutation_rate is not None:
            return self.mutation_rate
        return max(0.02, round(1.0 / self.individual_size, 4))


@dataclass
class VirusResult:
    """An evolved virus plus its provenance."""

    name: str
    platform: str
    metric: str
    individual: Individual
    source: str
    history: RunHistory
    all_cores_run: RunResult = field(repr=False, default=None)

    @property
    def fitness(self) -> float:
        return self.individual.fitness or 0.0


def make_machine(platform: str, seed: int = 0,
                 environment: Optional[str] = None) -> SimulatedMachine:
    """A simulated platform with its Table II execution environment."""
    env = environment or _PLATFORM_ENV.get(platform, "bare_metal")
    return SimulatedMachine(platform, environment=env, seed=seed)


def make_engine(machine: SimulatedMachine, metric: str, seed: int,
                scale: GAScale,
                fitness=None,
                measurement: Optional[Measurement] = None,
                recorder=None,
                strategy: Optional[Union[str, SearchStrategy]] = None
                ) -> GeneticEngine:
    """Wire a search engine for one (platform, metric) search.

    ``strategy`` selects the search (default ``genetic`` — the paper's
    GA); passing ``"random"`` gives the paper's baseline search over
    the identical configuration and seed, and a ready
    :class:`~repro.search.SearchStrategy` instance runs as-is (how the
    comparison experiment wires the pruning wrappers).
    """
    if metric not in MEASUREMENTS:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of "
            f"{sorted(MEASUREMENTS)}")
    isa = machine.arch.isa
    ga = GAParameters(
        population_size=scale.population_size,
        individual_size=scale.individual_size,
        mutation_rate=scale.effective_mutation_rate(),
        generations=scale.generations,
        seed=seed,
    )
    config = RunConfig(ga=ga, library=library_for(isa),
                       template_text=template_for(isa))
    if measurement is None:
        target = SimulatedTarget(machine)
        target.connect()
        measurement = MEASUREMENTS[metric](
            target, {"samples": str(scale.samples)})
    if fitness is None:
        fitness = DefaultFitness()
    return GeneticEngine(config, measurement, fitness, recorder=recorder,
                         strategy=strategy)


# -- memoised virus evolution --------------------------------------------------

_VIRUS_CACHE: Dict[Tuple, VirusResult] = {}


def clear_virus_cache() -> None:
    _VIRUS_CACHE.clear()


def evolve_virus(platform: str, metric: str, seed: int,
                 scale: Optional[GAScale] = None,
                 name: Optional[str] = None,
                 use_cache: bool = True,
                 strategy: Optional[str] = None) -> VirusResult:
    """Evolve (or fetch the memoised) virus for a platform/metric pair,
    then score it with one instance per core.

    ``strategy`` selects the search strategy (default ``genetic``);
    the memo key includes it, so a GA virus and a random-search
    baseline for the same (platform, metric, seed, scale) coexist in
    the cache.
    """
    scale = scale or GAScale()
    key = (platform, metric, seed, scale.population_size,
           scale.generations, scale.individual_size,
           scale.effective_mutation_rate(), scale.samples,
           strategy or "genetic")
    if use_cache and key in _VIRUS_CACHE:
        return _VIRUS_CACHE[key]

    machine = make_machine(platform, seed=seed)
    engine = make_engine(machine, metric, seed, scale, strategy=strategy)
    history = engine.run()
    best = history.best_individual
    source = engine.render_source(best)
    # Score on a fresh machine so GA-measurement noise draws don't leak
    # into the reported figure values.
    scorer = make_machine(platform, seed=seed + 10_000)
    run = scorer.run_source(source, cores=scorer.arch.core_count)
    result = VirusResult(
        name=name or f"{metric}Virus",
        platform=platform,
        metric=metric,
        individual=best,
        source=source,
        history=history,
        all_cores_run=run,
    )
    if use_cache:
        _VIRUS_CACHE[key] = result
    return result


def score_baselines(platform: str, names, seed: int = 0,
                    isa: Optional[str] = None) -> Dict[str, RunResult]:
    """Run each baseline workload with one instance per core."""
    machine = make_machine(platform, seed=seed + 10_000)
    isa = isa or machine.arch.isa
    results: Dict[str, RunResult] = {}
    for workload_name in names:
        w = workload(workload_name, isa)
        results[workload_name] = machine.run_source(
            w.source, name=workload_name,
            cores=machine.arch.core_count)
    return results
