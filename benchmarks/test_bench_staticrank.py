"""Static analyzer overhead vs one simulated evaluation.

The ``static_rank`` search wrapper only pays off if pricing a candidate
statically is vastly cheaper than measuring it on the simulated
machine.  This benchmark prices every shipped winner (all
``configs/*/results/individuals/*.txt`` sources) through the cost
model's :func:`static_score` fast path and through the full
``analyze_cost`` pass, then times one complete simulated evaluation
(the ``measure_repeated`` call a GA generation issues per individual)
on the same platform.

Writes ``BENCH_staticrank.json`` at the repo root.

Acceptance gate: the per-program ``static_score`` must be at least
100× cheaper than a single simulated evaluation — the wrapper prices a
whole generation for less than one measurement it saves.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from conftest import run_once

from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.cpu.microarch import microarch_for
from repro.isa import assembler_for
from repro.measurement import PowerMeasurement
from repro.staticcheck import analyze_cost, static_score

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_staticrank.json"

#: Shipped config directory -> (platform, static metric).
CONFIG_PLATFORMS = {
    "arm_ipc": ("cortex_a15", "ipc"),
    "arm_power": ("cortex_a15", "power"),
    "arm_temperature": ("cortex_a15", "temperature"),
    "x86_didt": ("athlon_x4", "didt"),
}

REPEATS = 5


def _best_seconds(func) -> float:
    func()  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        began = perf_counter()
        func()
        best = min(best, perf_counter() - began)
    return best


def _best_fresh_evaluation_seconds(machine, target, sources) -> float:
    """Best-of time of ``measure_repeated`` over ``sources``, each pass
    under a new source name.  The sources are compiled under that name
    before the timer starts, so a pass finds them in the compile cache
    as new Programs: they miss the run memo and pay the simulation, as
    a new individual does."""
    best = float("inf")
    for attempt in range(REPEATS + 1):  # the first pass is the warm-up
        name = f"pass{attempt}.s"
        measurement = PowerMeasurement(
            target, {"samples": "2", "source_name": name})
        for source in sources:
            machine.compile(source, name=name)
        began = perf_counter()
        for source in sources:
            measurement.measure_repeated(source, None)
        if attempt:
            best = min(best, perf_counter() - began)
    return best


def _load_winners():
    """(platform, metric, source, program) for every shipped winner."""
    winners = []
    for config_dir, (platform, metric) in sorted(CONFIG_PLATFORMS.items()):
        arch = microarch_for(platform)
        assembler = assembler_for(arch.isa)
        for path in sorted(
                (REPO_ROOT / "configs" / config_dir /
                 "results" / "individuals").glob("*.txt")):
            source = path.read_text()
            program = assembler.assemble(source, name=path.name)
            winners.append((arch, metric, source, program))
    return winners


def test_bench_staticrank(benchmark):
    winners = _load_winners()
    assert len(winners) >= 40, "expected the shipped winner corpus"

    def score_all():
        for arch, metric, _, program in winners:
            static_score(program, arch, metric)

    def analyze_all():
        for arch, _, _, program in winners:
            analyze_cost(program, arch)

    score_s = _best_seconds(score_all) / len(winners)
    analyze_s = _best_seconds(analyze_all) / len(winners)

    # One full simulated evaluation, exactly as the GA pays for it:
    # measure_repeated on a connected simulated target.  Averaged over
    # a few winners so one unusually short kernel doesn't skew it.
    machine = SimulatedMachine("cortex_a15", seed=0)
    target = SimulatedTarget(machine)
    target.connect()
    eval_sources = [source for arch, _, source, _ in winners
                    if arch.isa == "arm"][:8]
    evaluation_s = _best_fresh_evaluation_seconds(
        machine, target, eval_sources) / len(eval_sources)

    score_ratio = evaluation_s / score_s
    analyze_ratio = evaluation_s / analyze_s
    results = {
        "winners": len(winners),
        "static_score_us_per_program": round(score_s * 1e6, 2),
        "analyze_cost_us_per_program": round(analyze_s * 1e6, 2),
        "simulated_evaluation_us": round(evaluation_s * 1e6, 2),
        "score_speedup_vs_evaluation": round(score_ratio, 1),
        "analyze_speedup_vs_evaluation": round(analyze_ratio, 1),
    }

    assert score_ratio >= 100.0, \
        (f"static_score must be >= 100x cheaper than one simulated "
         f"evaluation: {results}")

    arch0, metric0, _, program0 = winners[0]
    run_once(benchmark, lambda: static_score(program0, arch0, metric0))

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}: static_score "
          f"{results['score_speedup_vs_evaluation']}x and analyze_cost "
          f"{results['analyze_speedup_vs_evaluation']}x under one "
          f"simulated evaluation")
