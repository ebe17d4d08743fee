"""GeST-style command line.

The original tool is driven as ``python gest.py <config.xml>``.  This
reproduction mirrors that::

    gest run config.xml [--generations N] [--platform NAME] [--no-screen]
                        [--workers N] [--cache | --no-cache]
                        [--strategy NAME]
    gest measure source.s --platform NAME [--cores N]
    gest lint config.xml [--json]
    gest check source.s [--platform NAME] [--json]
    gest analyze source.s [--platform NAME] [--intent METRIC]
                          [--fitness-target X] [--json]
    gest selfcheck [--json]
    gest stats results_dir/
    gest presets
    gest serve [--db FILE] [--workers N] [--until-idle]
    gest submit config.xml [--db FILE] [--platform NAME]
                           [--strategy NAME] [--seed N] [--generations N]
    gest runs [--db FILE] [--status STATUS]
    gest tail run-id [--db FILE] [--follow]

``run`` executes a GA search described by a main configuration file
against a simulated platform, recording outputs per the paper's
conventions.  The last four subcommands are GeST-as-a-service:
``submit`` enqueues a run into a sqlite result store
(:mod:`repro.store`), ``serve`` starts the asyncio orchestrator
(:mod:`repro.service`) that executes queued runs on concurrent worker
slots sharing one evaluation cache, ``runs`` lists the ledger and
``tail`` streams a run's generation events as JSONL.  ``measure`` runs one source file (e.g. a recorded
individual) and prints every sensor — the quick way to re-score a
saved virus.  ``lint`` runs the static config/library checks of
:mod:`repro.staticcheck` (also run eagerly by ``run``); ``check``
assembles one source file and reports its dataflow diagnostics and
static profile; ``analyze`` additionally prices the loop body against
the platform's static cost model (:mod:`repro.staticcheck.costmodel`),
printing the per-instruction pressure table, the static IPC/energy
bounds and any ``SC3xx`` findings; ``selfcheck`` runs the framework
determinism lint over
the installed ``repro`` package.  ``stats`` replays the released
post-processing script on a recorded run.  ``presets`` lists the
available simulated platforms.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.postprocess import run_statistics
from .core.config import parse_config_file
from .core.engine import GeneticEngine
from .core.errors import GestError
from .core.loader import instantiate, load_class
from .core.output import OutputRecorder
from .cpu.machine import SimulatedMachine
from .cpu.microarch import preset_names
from .cpu.target import SimulatedTarget
from .evaluation import EvaluationCache, StageTimings
from .fitness.default_fitness import DefaultFitness
from .measurement.base import Measurement
from .search import STRATEGIES
from .staticcheck import (StaticScreen, analyze_cost, analyze_program,
                          diagnostics_to_json, format_diagnostics,
                          has_errors, lint_config, lint_config_file,
                          lint_tree, render_cost_table,
                          repro_package_root, sort_diagnostics)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gest",
        description="GeST reproduction: GA-based CPU stress-test "
                    "generation on simulated platforms")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a GA search from a config file")
    run.add_argument("config", type=Path, help="main configuration XML")
    run.add_argument("--platform", default="cortex_a15",
                     choices=preset_names(),
                     help="simulated target platform")
    run.add_argument("--generations", type=int, default=None,
                     help="override the configured generation count")
    run.add_argument("--results", type=Path, default=None,
                     help="override the configured results directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the configured GA seed")
    run.add_argument("--quiet", action="store_true")
    run.add_argument("--no-screen", action="store_true",
                     help="disable pre-measurement static screening")
    run.add_argument("--no-lint", action="store_true",
                     help="skip the eager config lint before the search")
    run.add_argument("--workers", type=int, default=None,
                     help="evaluation worker processes (default: the "
                          "config's <evaluation workers=...>, or 1); "
                          "each worker replicates the simulated board; "
                          "0 means auto — size the pool from this "
                          "machine and pick the engine per generation")
    run.add_argument("--backend", default=None,
                     choices=("auto", "serial", "batched", "pool"),
                     help="evaluation execution engine (default: the "
                          "config's <evaluation backend=...>, or auto); "
                          "'batched' evaluates a whole generation as "
                          "one in-process batch, 'auto' routes each "
                          "generation to the cheapest engine")
    run.add_argument("--strategy", default=None,
                     choices=STRATEGIES.names(),
                     help="search strategy proposing populations "
                          "(default: the config's <search strategy=...>"
                          ", or genetic — the paper's GA)")
    cache_group = run.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="memoise evaluations in <results>/evaluation_cache.json "
             "(default: the config's <evaluation cache=...>)")
    cache_group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the evaluation cache")

    measure = sub.add_parser(
        "measure", help="compile and run one source file, print sensors")
    measure.add_argument("source", type=Path, help="assembly source file")
    measure.add_argument("--platform", default="cortex_a15",
                         choices=preset_names())
    measure.add_argument("--cores", type=int, default=None,
                         help="instances to run (default: all cores)")
    measure.add_argument("--duration", type=float, default=5.0)
    measure.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint", help="statically lint a main configuration file")
    lint.add_argument("config", type=Path, help="main configuration XML")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit diagnostics as JSON (for CI)")

    check = sub.add_parser(
        "check", help="assemble a source file and report dataflow "
                      "diagnostics and its static profile")
    check.add_argument("source", type=Path, help="assembly source file")
    check.add_argument("--platform", default="cortex_a15",
                       choices=preset_names(),
                       help="platform whose syntax and cache geometry "
                            "the check uses")
    check.add_argument("--json", action="store_true", dest="as_json")

    analyze = sub.add_parser(
        "analyze", help="price a source file against a platform's "
                        "static cost model (bounds, pressure table, "
                        "SC3xx diagnostics)")
    analyze.add_argument("source", type=Path, help="assembly source file")
    analyze.add_argument("--platform", default="cortex_a15",
                         choices=preset_names(),
                         help="platform whose latency/port/energy "
                              "tables price the body")
    analyze.add_argument("--intent", default=None,
                         choices=("power", "energy", "temperature",
                                  "didt", "ipc"),
                         help="stress intent (fitness metric) for the "
                              "SC302/SC303 checks")
    analyze.add_argument("--fitness-target", type=float, default=None,
                         help="fitness value the search hopes to reach; "
                              "SC303 fires when the static bound rules "
                              "it out")
    analyze.add_argument("--json", action="store_true", dest="as_json")

    selfcheck = sub.add_parser(
        "selfcheck", help="run the framework determinism lint over the "
                          "installed repro package")
    selfcheck.add_argument("--path", type=Path, default=None,
                           help="lint this tree instead of the package")
    selfcheck.add_argument("--json", action="store_true", dest="as_json")

    stats = sub.add_parser("stats",
                           help="post-process a recorded run directory")
    stats.add_argument("results_dir", type=Path)

    sub.add_parser("presets", help="list simulated platforms")

    db_help = "sqlite result store (default: gest.sqlite)"

    serve = sub.add_parser(
        "serve", help="run the orchestrator: execute queued runs on "
                      "concurrent worker slots sharing one store")
    serve.add_argument("--db", type=Path, default=Path("gest.sqlite"),
                       help=db_help)
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent run slots")
    serve.add_argument("--queue-size", type=int, default=8,
                       help="bound on claimed-but-unstarted runs")
    serve.add_argument("--workdir", type=Path, default=None,
                       help="also record each run's results directory "
                            "under <workdir>/<run-id>/")
    serve.add_argument("--eval-workers", type=int, default=1,
                       help="evaluation worker processes per run")
    serve.add_argument("--until-idle", action="store_true",
                       help="exit once the queue is drained instead of "
                            "serving forever")

    submit = sub.add_parser(
        "submit", help="enqueue a run into the result store")
    submit.add_argument("config", type=Path, help="main configuration XML")
    submit.add_argument("--db", type=Path, default=Path("gest.sqlite"),
                        help=db_help)
    submit.add_argument("--platform", default="cortex_a15",
                        choices=preset_names(),
                        help="simulated target platform")
    submit.add_argument("--strategy", default=None,
                        choices=STRATEGIES.names(),
                        help="search strategy (default: the config's)")
    submit.add_argument("--seed", type=int, default=None,
                        help="override the configured GA seed")
    submit.add_argument("--generations", type=int, default=None,
                        help="override the configured generation count")
    submit.add_argument("--no-lint", action="store_true",
                        help="skip the eager config lint")

    runs = sub.add_parser("runs", help="list the result store's runs")
    runs.add_argument("--db", type=Path, default=Path("gest.sqlite"),
                      help=db_help)
    runs.add_argument("--status", default=None,
                      choices=("queued", "running", "finished", "failed",
                               "cancelled"),
                      help="only runs in this state")

    tail = sub.add_parser(
        "tail", help="stream a run's events from the store as JSONL")
    tail.add_argument("run_id", help="run id as printed by submit/runs")
    tail.add_argument("--db", type=Path, default=Path("gest.sqlite"),
                      help=db_help)
    tail.add_argument("--follow", action="store_true",
                      help="keep polling until the run reaches a "
                           "terminal state")
    tail.add_argument("--poll-interval", type=float, default=0.5,
                      help="seconds between polls with --follow")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config)
    if not args.no_lint:
        # Eager lint: a malformed library means generations of
        # zero-fitness individuals — fail at load time instead.
        diagnostics = lint_config(config, file=str(args.config))
        if has_errors(diagnostics):
            for diag in diagnostics:
                print(diag.format(), file=sys.stderr)
            print(f"error: configuration {args.config} failed the static "
                  "lint; fix the diagnostics above or re-run with "
                  "--no-lint", file=sys.stderr)
            return 1
    if args.seed is not None:
        config.ga.seed = args.seed
    machine = SimulatedMachine(args.platform,
                               seed=config.ga.seed or 0)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = instantiate(config.measurement_class, Measurement,
                              target, config.measurement_params)
    fitness_cls = load_class(config.fitness_class)
    fitness = fitness_cls() if fitness_cls is not DefaultFitness \
        else DefaultFitness()

    results_dir = args.results or config.results_dir
    recorder = OutputRecorder(results_dir) if results_dir else None
    screen = None if args.no_screen else StaticScreen.for_machine(machine)

    if args.cache is not None:
        config.evaluation.cache = args.cache
    cache = None
    cache_path = None
    if config.evaluation.cache:
        fingerprint = (f"{measurement.fingerprint()}"
                       f"|noise_seed={config.ga.seed or 0}")
        if recorder is not None:
            cache_path = recorder.results_dir / "evaluation_cache.json"
        if cache_path is not None and cache_path.exists():
            cache = EvaluationCache.load(cache_path, fingerprint)
        else:
            cache = EvaluationCache(fingerprint)

    engine = GeneticEngine(config, measurement, fitness, recorder=recorder,
                           screen=screen, cache=cache, workers=args.workers,
                           backend=args.backend, strategy=args.strategy)
    history = engine.run(args.generations)
    if cache is not None and cache_path is not None:
        cache.save(cache_path)

    best = history.best_individual
    if not args.quiet:
        print(f"search strategy: {engine.strategy.name}")
        for stats in history.generations:
            screened = (f"  screened {stats.screen_failures:2d}"
                        if stats.screen_failures else "")
            print(f"generation {stats.number:3d}  "
                  f"best {stats.best_fitness:10.4f}  "
                  f"mean {stats.mean_fitness:10.4f}{screened}")
        totals = StageTimings()
        cache_hits = measured = 0
        for stats in history.generations:
            totals.add(stats.timings)
            cache_hits += stats.cache_hits
            measured += stats.measured
        print(f"\nevaluation: {measured} measured, "
              f"{cache_hits} cache hit(s); "
              f"render {totals.render_s:.2f}s  "
              f"screen {totals.screen_s:.2f}s  "
              f"measure {totals.measure_s:.2f}s  "
              f"score {totals.score_s:.2f}s")
        print(f"\nbest individual uid={best.uid} "
              f"fitness={best.fitness:.4f} "
              f"measurements={[round(m, 4) for m in best.measurements]}")
        print(best.render_body())
        if recorder is not None:
            print(f"\nresults recorded under {recorder.results_dir}")
    return 0


def _command_measure(args: argparse.Namespace) -> int:
    if not args.source.exists():
        print(f"error: source file {args.source} does not exist",
              file=sys.stderr)
        return 1
    machine = SimulatedMachine(args.platform, seed=args.seed)
    cores = args.cores if args.cores is not None \
        else machine.arch.core_count
    result = machine.run_source(args.source.read_text(),
                                name=args.source.name,
                                cores=cores, duration_s=args.duration)
    print(f"platform:        {args.platform} "
          f"({cores} instance(s), {args.duration:.1f}s)")
    print(f"IPC:             {result.ipc:.3f}")
    print(f"avg chip power:  {result.avg_power_w:.3f} W "
          f"(peak sample {result.peak_power_w:.3f} W)")
    print(f"chip temp:       {result.temperature_c:.2f} C")
    print(f"voltage pk-pk:   {result.peak_to_peak_v * 1000:.2f} mV "
          f"(min {result.v_min:.4f} V)")
    if result.noc_power_w:
        print(f"NoC power:       {result.noc_power_w:.2f} W")
    print(f"status:          {'CRASHED' if result.crashed else 'ok'}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    diagnostics = sort_diagnostics(lint_config_file(args.config))
    if args.as_json:
        print(diagnostics_to_json(diagnostics, file=str(args.config)))
    else:
        print(format_diagnostics(diagnostics))
    return 1 if has_errors(diagnostics) else 0


def _command_check(args: argparse.Namespace) -> int:
    if not args.source.exists():
        print(f"error: source file {args.source} does not exist",
              file=sys.stderr)
        return 1
    machine = SimulatedMachine(args.platform)
    hierarchy = machine.hierarchy
    l1 = hierarchy.l1_config.size_bytes if hierarchy is not None else None
    l2 = hierarchy.l2_config.size_bytes if hierarchy is not None else None
    try:
        program = machine.compile(args.source.read_text(),
                                  name=args.source.name)
    except GestError as exc:
        if args.as_json:
            print(diagnostics_to_json([], file=str(args.source),
                                      assembly_error=str(exc)))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    kwargs = {} if hierarchy is None else {"l1_bytes": l1, "l2_bytes": l2}
    report = analyze_program(program, source_file=str(args.source),
                             **kwargs)
    report.diagnostics = sort_diagnostics(report.diagnostics)
    profile = report.profile
    if args.as_json:
        print(diagnostics_to_json(
            report.diagnostics, file=str(args.source),
            profile={
                "loop_length": profile.loop_length,
                "chain_depth": profile.chain_depth,
                "mix_vector": profile.mix_vector,
                "footprint_bytes": profile.footprint_bytes,
                "distinct_lines": profile.distinct_lines,
                "uninitialised_reads": profile.uninitialised_reads,
                "dead_writes": profile.dead_writes,
                "memory_instructions": profile.memory_instructions,
            }))
        return 1 if has_errors(report.diagnostics) else 0
    print(f"program:        {args.source.name} "
          f"({args.platform}, {machine.assembler.syntax_name})")
    print(f"loop length:    {profile.loop_length}")
    print(f"chain depth:    {profile.chain_depth}")
    mix = ", ".join(f"{name}={value:.2f}"
                    for name, value in sorted(profile.mix_vector.items())
                    if value)
    print(f"mix vector:     {mix or '(empty)'}")
    print(f"footprint:      {profile.footprint_bytes} bytes "
          f"({profile.distinct_lines} lines, "
          f"{profile.memory_instructions} memory instructions)")
    print(f"dead writes:    {profile.dead_writes}")
    print(f"uninit reads:   {profile.uninitialised_reads}")
    print(format_diagnostics(report.diagnostics))
    return 1 if has_errors(report.diagnostics) else 0


def _command_analyze(args: argparse.Namespace) -> int:
    if not args.source.exists():
        print(f"error: source file {args.source} does not exist",
              file=sys.stderr)
        return 1
    machine = SimulatedMachine(args.platform)
    hierarchy = machine.hierarchy
    kwargs = {}
    if hierarchy is not None:
        kwargs = {"l1_bytes": hierarchy.l1_config.size_bytes,
                  "l2_bytes": hierarchy.l2_config.size_bytes,
                  "line_bytes": hierarchy.l1_config.line_bytes}
    try:
        program = machine.compile(args.source.read_text(),
                                  name=args.source.name)
    except GestError as exc:
        if args.as_json:
            print(diagnostics_to_json([], file=str(args.source),
                                      assembly_error=str(exc)))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    report = analyze_cost(program, machine.arch,
                          source_file=str(args.source),
                          intent=args.intent,
                          fitness_target=args.fitness_target, **kwargs)
    report.diagnostics = sort_diagnostics(report.diagnostics)
    if args.as_json:
        print(diagnostics_to_json(report.diagnostics,
                                  file=str(args.source),
                                  cost=report.cost.to_dict()))
        return 1 if has_errors(report.diagnostics) else 0
    print(f"program: {args.source.name} "
          f"({args.platform}, {machine.assembler.syntax_name})")
    print()
    print(render_cost_table(report))
    print()
    print(format_diagnostics(report.diagnostics))
    return 1 if has_errors(report.diagnostics) else 0


def _command_selfcheck(args: argparse.Namespace) -> int:
    root = args.path if args.path is not None else repro_package_root()
    diagnostics = lint_tree(root)
    if args.as_json:
        print(diagnostics_to_json(diagnostics, root=str(root)))
    else:
        print(f"determinism lint over {root}")
        print(format_diagnostics(diagnostics))
    return 1 if has_errors(diagnostics) else 0


def _command_stats(args: argparse.Namespace) -> int:
    stats = run_statistics(args.results_dir)
    print(f"generations: {stats.generations}")
    print(f"overall best fitness: {stats.overall_best_fitness:.4f} "
          f"(generation {stats.overall_best_generation})")
    print("best fitness per generation:")
    for number, value in enumerate(stats.best_fitness_per_generation):
        print(f"  {number:3d}  {value:.4f}")
    final_mix = stats.best_mix_per_generation[-1]
    print("final fittest instruction mix:")
    for category, count in sorted(final_mix.items()):
        if count:
            print(f"  {category:12s} {count}")
    # stats.jsonl is optional and versioned: read it tolerantly —
    # unknown keys from newer schemas pass through, unparseable lines
    # (a killed run's torn write under the old appender) are skipped.
    records = stats.stats_records
    if records:
        cache_hits = sum(int(r.get("cache_hits", 0)) for r in records)
        measured = sum(int(r.get("measured", 0)) for r in records)
        run_ids = sorted({r["run_id"] for r in records if "run_id" in r})
        schemas = sorted({r["schema"] for r in records if "schema" in r})
        line = (f"stats.jsonl: {len(records)} record(s), "
                f"{measured} measured, {cache_hits} cache hit(s)")
        if run_ids:
            line += f", run {', '.join(str(r) for r in run_ids)}"
        if schemas:
            line += f" (schema {', '.join(str(s) for s in schemas)})"
        print(line)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import Orchestrator
    orchestrator = Orchestrator(args.db, workers=args.workers,
                                queue_limit=args.queue_size,
                                workdir=args.workdir,
                                evaluation_workers=args.eval_workers)
    mode = "until idle" if args.until_idle else "until interrupted"
    print(f"serving {args.db} with {args.workers} worker slot(s) {mode}")
    try:
        completed = asyncio.run(orchestrator.serve(
            until_idle=args.until_idle))
    except KeyboardInterrupt:
        print("interrupted; claimed runs resume on the next serve")
        return 0
    print(f"executed {len(completed)} run(s)")
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from .store import RunStore
    config = parse_config_file(args.config)
    if not args.no_lint:
        diagnostics = lint_config(config, file=str(args.config))
        if has_errors(diagnostics):
            for diag in diagnostics:
                print(diag.format(), file=sys.stderr)
            print(f"error: configuration {args.config} failed the static "
                  "lint; fix the diagnostics above or re-run with "
                  "--no-lint", file=sys.stderr)
            return 1
    with RunStore(args.db) as store:
        run_id = store.submit_run(config, platform=args.platform,
                                  strategy=args.strategy, seed=args.seed,
                                  generations=args.generations)
    print(run_id)
    return 0


def _command_runs(args: argparse.Namespace) -> int:
    from .store import RunStore
    if not args.db.exists():
        print(f"error: result store {args.db} does not exist",
              file=sys.stderr)
        return 1
    with RunStore(args.db) as store:
        rows = store.list_runs(status=args.status)
    if not rows:
        print("no runs" + (f" with status {args.status}" if args.status
                           else ""))
        return 0
    print(f"{'RUN':<12} {'STATUS':<10} {'PLATFORM':<12} {'STRATEGY':<12} "
          f"{'SEED':>6} {'GENS':>5} {'BEST':>10}")
    for row in rows:
        best = f"{row.best_fitness:.4f}" if row.best_fitness is not None \
            else "-"
        print(f"{row.run_id:<12} {row.status:<10} {row.platform:<12} "
              f"{row.strategy or 'config':<12} "
              f"{row.seed if row.seed is not None else '-':>6} "
              f"{row.generations if row.generations is not None else '-':>5}"
              f" {best:>10}")
    return 0


def _command_tail(args: argparse.Namespace) -> int:
    import json
    import time

    from .store import RunStore
    if not args.db.exists():
        print(f"error: result store {args.db} does not exist",
              file=sys.stderr)
        return 1
    terminal = {"finished", "failed", "cancelled"}
    with RunStore(args.db) as store:
        run = store.get_run(args.run_id)  # loud error for unknown ids
        last_seq = -1
        while True:
            for seq, event_type, payload in store.events(
                    args.run_id, after_seq=last_seq):
                last_seq = seq
                print(json.dumps({"seq": seq, "event": event_type,
                                  **payload}, sort_keys=True))
            run = store.get_run(args.run_id)
            if not args.follow or run.status in terminal:
                break
            time.sleep(args.poll_interval)
    if run.status == "failed":
        print(f"error: {args.run_id} failed: {run.error}", file=sys.stderr)
        return 1
    return 0


def _command_presets() -> int:
    from .cpu.microarch import PRESETS
    for name in preset_names():
        arch = PRESETS[name]
        kind = "in-order" if arch.in_order else "out-of-order"
        print(f"{name:12s} {arch.isa:4s} {arch.core_count} cores  "
              f"{arch.frequency_hz / 1e9:.1f} GHz  {kind}, "
              f"{arch.issue_width}-wide")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "measure":
            return _command_measure(args)
        if args.command == "lint":
            return _command_lint(args)
        if args.command == "check":
            return _command_check(args)
        if args.command == "analyze":
            return _command_analyze(args)
        if args.command == "selfcheck":
            return _command_selfcheck(args)
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "presets":
            return _command_presets()
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "submit":
            return _command_submit(args)
        if args.command == "runs":
            return _command_runs(args)
        if args.command == "tail":
            return _command_tail(args)
    except GestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — exit quietly like
        # well-behaved UNIX tools do.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
