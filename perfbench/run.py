"""End-to-end GeST search benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Closed loop, one search at a time: every search is a fresh
``perfbench/search.py`` process started from this one, so interpreter
start, imports and cold compile caches are paid as ``gest run`` pays
them.  For ``--seconds`` the benchmark repeats the workload's *timed
search* — the shipped configuration with its shipped GA seed, so every
run measures the same work — and reports medians.  It then runs one
*confirmation search* with GA seed ``--seed``, which supplies
``best_fitness`` and the ``history_digest`` and goes through the same
correctness checks.  ``--trace 1`` alternates untraced and traced timed
searches and reports per-layer metrics instead (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every search ran and passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT_SEED, WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics (``--trace 0``) with their units; ``best_fitness``
#: takes the workload's measurement unit, named in the summary.
END_TO_END = {"search_wall_s": "s", "time_to_target_s": "s",
              "best_fitness": "fitness", "setup_s": "s",
              "peak_rss_mb": "MB"}
#: End-to-end times reported at the host speed at which the calibration
#: loop (``search.calibration_s``) takes this long; see README.md.
REFERENCE_CALIBRATION_S = 0.04
#: End-to-end metrics measured in host seconds, hence calibrated.
TIMES = ("search_wall_s", "time_to_target_s", "setup_s")
#: Timed searches per run at least, whatever ``--seconds`` says.
MIN_SEARCHES = 3
#: A search process that runs longer than this has hung.
SEARCH_TIMEOUT_S = 120.0


def stamp(seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_commit": commit,
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def shipped_seed(workload: Workload) -> int:
    config = ROOT / "configs" / workload.config / "config.xml"
    return int(ET.parse(config).getroot().find("ga").get("seed"))


def calibrated(records: List[dict], name: str) -> float:
    """Median over searches of a host time scaled to the reference speed."""
    return median(r[name] * REFERENCE_CALIBRATION_S
                  / median(r["calibration_samples_s"]) for r in records)


class Runner:
    """Starts search processes for one workload and collects records."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.count = 0
        self.errors: List[str] = []
        self.env = {key: value for key, value in os.environ.items()
                    if key != "GEST_EVAL_WORKERS"}

    def search(self, seed: int, trace: bool) -> Optional[dict]:
        """One search in a fresh process; None when it failed to run."""
        self.count += 1
        workdir = self.workdir / f"search-{self.count:03d}"
        workdir.mkdir(parents=True)
        command = [sys.executable, str(HERE / "search.py"),
                   "--workload", self.workload.name, "--seed", str(seed),
                   "--spawned", repr(time.time()), "--workdir", str(workdir)]
        if trace:
            command.append("--trace")
        try:
            done = subprocess.run(command, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=SEARCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"seed {seed}: search timed out")
            return None
        finally:
            for entry in workdir.iterdir():
                if entry.name != "spans.jsonl":
                    if entry.is_dir():
                        shutil.rmtree(entry)
                    else:
                        entry.unlink()
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"seed {seed}: search exited "
                               f"{done.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workload, workdir)
    timed_seed = shipped_seed(workload)
    plain: List[dict] = []
    traced: List[dict] = []
    started = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(plain)
        record = runner.search(timed_seed, want_traced)
        if record is not None:
            (traced if want_traced else plain).append(record)
        elapsed = time.monotonic() - started
        # Stop before a search that would end past --seconds, so every
        # run measures about the same span of time.
        per_search = elapsed / runner.count
        enough = len(plain) >= MIN_SEARCHES and \
            (not trace or len(traced) >= MIN_SEARCHES)
        if (elapsed + per_search > seconds and enough) \
                or elapsed >= seconds + 60 or len(runner.errors) > 2:
            break
    confirmation = runner.search(seed, False)

    # One entry per failed search: it did not run, failed a check, or
    # (timed) missed the target or disagreed with the first timed search.
    failures = list(runner.errors)
    timed = plain + traced
    for record in timed + [confirmation]:
        if record is None:
            continue
        problems = [f"check {name} failed"
                    for name, ok in record["checks"].items() if not ok]
        if record is not confirmation:
            if record["time_to_target_s"] is None:
                problems.append("missed the target")
            if record["history_digest"] != timed[0]["history_digest"]:
                problems.append("history digest differs between timed "
                                f"searches of seed {timed_seed}")
        if problems:
            failures.append("; ".join(problems))
    result = {"workload": workload.name, "timed_seed": timed_seed,
              "attempted": runner.count, "failures": failures,
              "stamp": stamp(seed)}
    if failures or confirmation is None or not plain:
        return result
    result["size"] = plain[0]["size"]
    result["history_digest"] = confirmation["history_digest"]
    result["timed_digest"] = plain[0]["history_digest"]
    if trace:
        layers = traced[0]["layers"].keys()
        metrics = {name: median(r["layers"][name] for r in traced)
                   for name in layers}
        metrics["trace.search_wall_s"] = calibrated(traced, "search_wall_s")
        metrics["trace.overhead_s"] = metrics["trace.search_wall_s"] \
            - calibrated(plain, "search_wall_s")
    else:
        metrics = {name: calibrated(plain, name) for name in TIMES}
        metrics["peak_rss_mb"] = median(r["peak_rss_mb"] for r in plain)
        metrics["best_fitness"] = confirmation["best_fitness"]
        result["raw"] = {name: median(r[name] for r in plain)
                         for name in TIMES}
        result["raw"]["calibration_s"] = median(
            median(r["calibration_samples_s"]) for r in plain)
    result["metrics"] = metrics
    return result


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("per_host_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction", "_mean")):
        return "ratio"
    return "count"


def report(result: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    workload = WORKLOADS[result["workload"]]
    print(f"workload {workload.name}: {result['attempted']} searches "
          f"attempted, timed seed {result['timed_seed']}, "
          f"stamp {json.dumps(result['stamp'], sort_keys=True)}")
    if "size" in result:
        population, generations, length = result["size"]
        print(f"  input size: population {population} x {generations} "
              f"generations x {length} instructions; target "
              f"{workload.target} {workload.unit}")
        print(f"  history_digest {result['history_digest']} (seed "
              f"{result['stamp']['seed']}), timed "
              f"{result['timed_digest']}")
    for name, value in result.get("metrics", {}).items():
        unit = workload.unit if name == "best_fitness" else unit_of(name)
        print(f"  {name:36s} {value:14.6f} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"  {name + ' (raw host time)':36s} {value:14.6f} s")
    rate = len(result["failures"]) / max(1, result["attempted"])
    print(f"  {'run_error_rate':36s} {rate:14.6f} ratio")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def as_json(result: dict, prefix: str = "") -> dict:
    return {f"{prefix}{name}": {"value": value, "unit": unit_of(name)}
            for name, value in result.get("metrics", {}).items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end GeST search benchmark")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no GeST checkout (src/repro and "
              "configs/ are missing)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace)) for name in names]
    metrics: dict = {}
    for result in results:
        report(result)
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update(as_json(result, prefix))
    failed = sum(len(result["failures"]) for result in results)
    correct = failed == 0 and all("metrics" in r for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": max(failed, int(not correct)),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
