"""Pipeline/PDN hot-path throughput: full simulation vs steady-state
tiling.

Writes ``BENCH_pipeline.json`` at the repo root with simulated
cycles/second for the pipeline with detection off (full cycle-by-cycle
scheduling) and on (stop at the first recurring scheduler state, tile
the kernel), PDN samples/second with and without the periodic lock-in
hint, and the end-to-end ``SimulatedMachine.run`` speedup.  The
measured loop is the ``arm_power``-style periodic kernel every GA
evaluation runs, at the stock ``sim_cycles=1600`` and at a 16× horizon
where tiling's asymptotic advantage shows.

Acceptance gate: detection must deliver ≥ 3× pipeline throughput on the
periodic loop at ``sim_cycles=1600`` while producing bit-identical
traces (the equivalence contract is tested exhaustively in
``tests/test_cpu_steady_state.py``; this file only spot-checks it).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np
from conftest import run_once

from repro.cpu import SimulatedMachine
from repro.cpu.pdn import PDNModel
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.power import PowerModel

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

#: The arm_power-style kernel: wide mixed-port issue, one L1-resident
#: load, a striding base register and a predictable loop edge.
ARM_POWER_LOOP = """
1:
add x1, x7, x8
mul x2, x5, x6
vmul v0, v1, v2
ldr x3, [x4, #0]
add x9, x9, #8
b 1b
"""

REPEATS = 5


def _best_seconds(func) -> float:
    func()  # warm caches and JIT-less interpreter state
    best = float("inf")
    for _ in range(REPEATS):
        began = perf_counter()
        func()
        best = min(best, perf_counter() - began)
    return best


def _best_fresh_run_seconds(machine, source) -> float:
    """Best-of time of ``machine.run`` on a Program assembled afresh
    (untimed) before each pass.  A new Program misses the machine's run
    memo, so every pass pays the simulation a new individual pays."""
    machine.run(machine.assembler.assemble(source))  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        program = machine.assembler.assemble(source)
        began = perf_counter()
        machine.run(program)
        best = min(best, perf_counter() - began)
    return best


def _pipeline_rates(machine, program, sim_cycles):
    tiled_sim = PipelineSimulator(machine.arch, detect_steady_state=True)
    full_sim = PipelineSimulator(machine.arch, detect_steady_state=False)
    tiled_s = _best_seconds(lambda: tiled_sim.execute(program, sim_cycles))
    full_s = _best_seconds(lambda: full_sim.execute(program, sim_cycles))
    trace = tiled_sim.execute(program, sim_cycles)
    return {
        "sim_cycles": sim_cycles,
        "detected_prefix": trace.prefix_cycles,
        "detected_period": trace.period_cycles,
        "full_cycles_per_second": round(sim_cycles / full_s),
        "tiled_cycles_per_second": round(sim_cycles / tiled_s),
        "speedup": round(full_s / tiled_s, 2),
    }


def test_bench_pipeline(benchmark):
    machine = SimulatedMachine("cortex_a15", seed=0)
    program = machine.compile(ARM_POWER_LOOP)

    results = {
        "loop": "arm_power-style periodic kernel (cortex_a15)",
        "cpu_count": os.cpu_count(),
        "pipeline": {},
    }
    for sim_cycles in (1600, 25600):
        results["pipeline"][f"sim_cycles_{sim_cycles}"] = \
            _pipeline_rates(machine, program, sim_cycles)

    # PDN integration with and without the periodic lock-in hint, on
    # the real current waveform of the tiled trace.
    trace = machine.pipeline.execute(program, 1600)
    model = PowerModel(machine.arch)
    current = model.current_trace_a(program, trace)
    pdn = PDNModel(machine.arch.pdn, machine.arch.frequency_hz)
    plain_s = _best_seconds(
        lambda: pdn.simulate(current, machine.supply_v))
    hinted_s = _best_seconds(
        lambda: pdn.simulate(current, machine.supply_v,
                             period=trace.period_cycles,
                             prefix=trace.prefix_cycles))
    hinted = pdn.simulate(current, machine.supply_v,
                          period=trace.period_cycles,
                          prefix=trace.prefix_cycles)
    plain = pdn.simulate(current, machine.supply_v)
    assert np.array_equal(hinted.voltage, plain.voltage)
    results["pdn"] = {
        "samples": len(current),
        "full_samples_per_second": round(len(current) / plain_s),
        "hinted_samples_per_second": round(len(current) / hinted_s),
        "speedup": round(plain_s / hinted_s, 2),
    }

    # End-to-end machine.run — what one GA measurement actually costs.
    on = SimulatedMachine("cortex_a15", seed=0)
    off = SimulatedMachine("cortex_a15", seed=0,
                           steady_state_detection=False)
    on_s = _best_fresh_run_seconds(on, ARM_POWER_LOOP)
    off_s = _best_fresh_run_seconds(off, ARM_POWER_LOOP)
    prog_on = on.compile(ARM_POWER_LOOP)
    prog_off = off.compile(ARM_POWER_LOOP)
    a, b = on.run(prog_on), off.run(prog_off)
    assert a.core_power_w == b.core_power_w
    assert np.array_equal(a.voltage.voltage, b.voltage.voltage)
    results["machine_run"] = {
        "detection_on_runs_per_second": round(1.0 / on_s, 1),
        "detection_off_runs_per_second": round(1.0 / off_s, 1),
        "speedup": round(off_s / on_s, 2),
    }

    stock = results["pipeline"]["sim_cycles_1600"]
    assert stock["speedup"] >= 3.0, \
        f"steady-state tiling must be >= 3x at sim_cycles=1600: {stock}"
    assert results["pipeline"]["sim_cycles_25600"]["speedup"] >= \
        stock["speedup"], "tiling advantage must grow with the horizon"

    run_once(benchmark, lambda: PipelineSimulator(
        machine.arch).execute(program, 1600))

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}: pipeline "
          f"{stock['speedup']}x at 1600 cycles, "
          f"{results['pipeline']['sim_cycles_25600']['speedup']}x at "
          f"25600; machine.run {results['machine_run']['speedup']}x")
