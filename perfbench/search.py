"""Run one benchmark search in this process and print its record.

Usage (``run.py`` starts one fresh process per search)::

    python3 perfbench/search.py --workload NAME --seed N --spawned T \
        --workdir DIR [--trace]

``--spawned`` is the wall-clock time (``time.time()``) at which
``run.py`` started this process, so ``setup_s`` includes interpreter
start and imports.  The last line of standard output is one JSON object:
raw host timings, the calibration loop's times, the search's results,
its correctness checks and — with ``--trace`` — the per-layer span
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import pickle
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, Workload  # noqa: E402

#: Generation-record fields that must match between runs of one seed
#: (the rest are timings and cache counters, which legitimately vary).
RESULT_FIELDS = ("number", "best_fitness", "mean_fitness", "best_uid",
                 "compile_failures", "screen_failures",
                 "best_measurements", "strategy")


def history_digest(series: List[float], uid: int, source: str,
                   measurements: List[float]) -> str:
    """Hash of everything a simulator-only change must leave unchanged."""
    payload = json.dumps({"best_series": [repr(f) for f in series],
                          "winner_uid": uid, "winner_source": source,
                          "winner_measurements": [repr(m)
                                                  for m in measurements]},
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest (pool) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The shared host's speed drifts by up to 1.6x within minutes, and
    the search times move with it (see README.md); ``run.py`` scales
    every time by this loop's time to take the drift out.
    """
    began = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(150000):
        table[i % 997] = table.get(i % 997, 0) + i
    for _ in range(10):
        # Small lists, so the loop adds nothing to peak_rss_mb.
        sorted(str(i) for i in range(5000))
    return time.perf_counter() - began


def load_config(workload: Workload, seed: int):
    from repro.core.config import parse_config_file
    from repro.staticcheck import has_errors, lint_config

    path = ROOT / "configs" / workload.config / "config.xml"
    config = parse_config_file(path)
    diagnostics = lint_config(config, file=str(path))
    if has_errors(diagnostics):
        raise RuntimeError(f"{path} fails the config lint: "
                           + "; ".join(d.format() for d in diagnostics))
    config.ga.seed = seed
    if workload.population is not None:
        config.ga.population_size = workload.population
    config.measurement_params.update(workload.measurement)
    if workload.backend is not None:
        config.evaluation.backend = workload.backend
    if workload.workers is not None:
        config.evaluation.workers = workload.workers
    if workload.strategy is not None:
        config.search.strategy = workload.strategy
        config.search.params = {}
    return config


def build_pipeline_parts(config, platform: str, seed: int):
    """Machine-bound plug-ins exactly as ``gest run`` builds them."""
    from repro.core.loader import instantiate, load_class
    from repro.cpu.machine import SimulatedMachine
    from repro.cpu.target import SimulatedTarget
    from repro.fitness.default_fitness import DefaultFitness
    from repro.measurement.base import Measurement
    from repro.staticcheck import StaticScreen

    machine = SimulatedMachine(platform, seed=seed)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = instantiate(config.measurement_class, Measurement,
                              target, config.measurement_params)
    fitness_cls = load_class(config.fitness_class)
    fitness = fitness_cls() if fitness_cls is not DefaultFitness \
        else DefaultFitness()
    return measurement, fitness, StaticScreen.for_machine(machine)


def reevaluate_winner(config, platform: str, seed: int, individual):
    """The winner's measurements and fitness from a fresh serial
    pipeline on a fresh machine, plus its rendered source."""
    from repro.core.template import Template
    from repro.evaluation.pipeline import EvaluationPipeline

    measurement, fitness, screen = build_pipeline_parts(config, platform,
                                                        seed)
    pipeline = EvaluationPipeline(Template(config.template_text),
                                  measurement, fitness, screen=screen,
                                  noise_seed=seed)
    result = pipeline.evaluate(individual)
    return result.measurements, result.fitness, result.source


class Timeline:
    """Run recorder noting when each generation completed."""

    def __init__(self) -> None:
        self.completed: List[float] = []
        self.best: List[float] = []

    def handle(self, event) -> None:
        if type(event).__name__ == "GenerationCompleted":
            self.completed.append(time.perf_counter())
            self.best.append(event.stats["best_fitness"])

    def close(self) -> None:
        pass


def time_to_target(started: float, completed: List[float],
                   best: List[float], target: float) -> Optional[float]:
    for stamp, value in zip(completed, best):
        if value >= target:
            return stamp - started
    return None


def run_search(workload: Workload, seed: int, spawned: float,
               workdir: Path, tracer) -> Dict:
    from repro.core.engine import GeneticEngine
    from repro.core.output import FileRecorder, read_stats

    config = load_config(workload, seed)
    measurement, fitness, screen = build_pipeline_parts(
        config, workload.platform, seed)
    results = workdir / "results"
    timeline = Timeline()
    engine = GeneticEngine(config, measurement, fitness,
                           recorder=[FileRecorder(results), timeline],
                           screen=screen)
    setup_s = time.time() - spawned

    calibration = [calibration_s(), calibration_s()]
    started = time.perf_counter()
    with tracer.trace():
        history = engine.run()
    wall_s = time.perf_counter() - started
    calibration += [calibration_s(), calibration_s()]

    best = history.best_individual
    series = history.best_fitness_series()
    checks = {}
    measurements, value, source = reevaluate_winner(
        config, workload.platform, seed, best)
    checks["winner_reevaluates"] = (list(measurements)
                                    == list(best.measurements)
                                    and value == best.fitness)
    checks["best_is_series_max"] = best.fitness == max(series)
    records = list(read_stats(results / "stats.jsonl"))
    checks["stats_record_per_generation"] = (
        [r["number"] for r in records]
        == list(range(config.ga.generations)))
    reached = time_to_target(started, timeline.completed, timeline.best,
                             workload.target)
    return {
        "setup_s": setup_s, "search_wall_s": wall_s,
        "calibration_samples_s": calibration, "time_to_target_s": reached,
        "best_fitness": best.fitness,
        "history_digest": history_digest(series, best.uid, source,
                                         list(measurements)),
        "checks": checks, "records": records,
        "evaluations": config.ga.population_size * config.ga.generations,
        "size": [config.ga.population_size, config.ga.generations,
                 config.ga.individual_size],
    }


def run_service(workload: Workload, seed: int, spawned: float,
                workdir: Path, tracer) -> Dict:
    from repro.service import Orchestrator
    from repro.store import RunStore

    config = load_config(workload, seed)
    store_path = workdir / "store.sqlite"
    with RunStore(store_path) as store:
        run_ids = [store.submit_run(config, platform=workload.platform,
                                    seed=seed)
                   for _ in range(1 + workload.replays)]
    orchestrator = Orchestrator(store_path, workers=1, poll_interval=0.01)
    setup_s = time.time() - spawned

    calibration = [calibration_s(), calibration_s()]
    with contextlib.redirect_stdout(sys.stderr), tracer.trace(), \
            tracer.span("service.serve"):
        orchestrator.serve_until_idle()
    calibration += [calibration_s(), calibration_s()]

    checks = {}
    with RunStore(store_path) as store:
        rows = [store.get_run(run_id) for run_id in run_ids]
        records = {run_id: store.generations(run_id) for run_id in run_ids}
        winner = store.winner(run_ids[0])
        stored = store.load_checkpoint(run_ids[0])
    checks["all_finished"] = all(row.status == "finished" for row in rows)
    cold = records[run_ids[0]]
    checks["stats_record_per_generation"] = all(
        [r["number"] for r in runs] == list(range(config.ga.generations))
        for runs in records.values())
    checks["replays_equal_cold"] = all(
        [{k: r[k] for k in RESULT_FIELDS} for r in runs]
        == [{k: r[k] for k in RESULT_FIELDS} for r in cold]
        for runs in records.values())
    best = pickle.loads(stored[1])["best"]
    measurements, value, source = reevaluate_winner(
        config, workload.platform, seed, best)
    checks["winner_reevaluates"] = (
        list(measurements) == list(best.measurements) == winner[
            "measurements"]
        and value == best.fitness == winner["fitness"]
        and source == winner["source"])
    series = [r["best_fitness"] for r in cold]
    first_claim = min(row.started_at for row in rows)
    cold_row = rows[0]
    reached = (cold_row.finished_at - first_claim
               if cold_row.best_fitness >= workload.target else None)
    evaluations = config.ga.population_size * config.ga.generations
    return {
        "setup_s": setup_s, "calibration_samples_s": calibration,
        "search_wall_s": max(row.finished_at for row in rows) - first_claim,
        "time_to_target_s": reached, "best_fitness": cold_row.best_fitness,
        "history_digest": history_digest(series, best.uid, source,
                                         list(measurements)),
        "checks": checks,
        "records": [r for runs in records.values() for r in runs],
        "evaluations": evaluations * len(run_ids),
        "size": [config.ga.population_size, config.ga.generations,
                 config.ga.individual_size],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not "
                           "from this checkout's src/")
    from trace_spans import NullTracer, Tracer
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    workload = WORKLOADS[args.workload]
    runner = run_service if workload.service else run_search
    record = runner(workload, args.seed, args.spawned, args.workdir,
                    tracer)
    records = record.pop("records")
    record["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        record["layers"] = tracer.summary(records, record["evaluations"])
        tracer.write(args.workdir / "spans.jsonl")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
