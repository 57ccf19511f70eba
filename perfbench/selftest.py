#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a joinest checkout; takes a few minutes.

1. A tiny-size run of every workload in BENCHMARK.json, untraced and
   traced, exits 0, prints the summary line with exactly the keys
   correct/attempted/failed/metrics, is correct with no failed operation,
   and emits every end-to-end (untraced) or per-layer (traced) metric named
   in BENCHMARK.json, finite and with the unit declared there.
2. On the plan workload, a bench-side delay around every optimizer call
   (--inject-optimizer-delay-us) is flagged by compare.py against base
   runs of the same seeds, on optimize_p50_us untraced and on
   optimizer.optimize_us traced, while clean runs made between them are
   not flagged on those metrics.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}
TINY_SECONDS = 2
DELAY_SECONDS = 8
DELAY_SEEDS = (1, 2, 3)
# Per optimizer call: optimize_p50_us on plan is about 1 ms, and the traced
# optimizer.optimize_us (a mean, pulled up by 10-table cliques) about 3.5
# ms; each delay more than doubles its metric.
DELAY_US = {0: 1500, 1: 5000}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")


def run(workload, seed, seconds, trace, extra=()):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    result = subprocess.run(command, capture_output=True, text=True,
                            cwd=ROOT, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        check(False, f"{workload} trace={trace}: exit {result.returncode}: "
                     f"{result.stderr.strip()[-500:]}")
        return None
    return json.loads(lines[-1])


def check_metrics(workload, trace, summary, declared):
    label = f"{workload} trace={trace}"
    check(set(summary) == SUMMARY_KEYS, f"{label}: summary keys {set(summary)}")
    check(summary.get("correct") is True, f"{label}: not correct")
    check(summary.get("failed") == 0, f"{label}: failed operations")
    check(summary.get("attempted", 0) >= 1, f"{label}: nothing attempted")
    metrics = summary.get("metrics", {})
    check(set(metrics) == set(declared),
          f"{label}: metric names differ: "
          f"{sorted(set(metrics) ^ set(declared))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} is not a finite number: {value}")
        if name in declared:
            check(metric.get("unit") == declared[name],
                  f"{label}: {name} unit {metric.get('unit')} != "
                  f"{declared[name]}")


def result_files(seeds, trace, delayed):
    suffix = "-delayed" if delayed else ""
    return [str(RESULTS / f"plan-{seed}-trace{trace}{suffix}.json")
            for seed in seeds]


def flagged(base, candidate):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), "compare",
         "--base", *base, "--candidate", *candidate],
        capture_output=True, text=True, check=False)
    print(result.stdout)
    line = result.stdout.strip().splitlines()[-1]
    names = line.removeprefix("flagged: ")
    return set() if names == "none" else set(names.split(", "))


def delay_check(trace, metric):
    delay = ("--inject-optimizer-delay-us", str(DELAY_US[trace]))
    base_dir = RESULTS / f"selftest-base-trace{trace}"
    base_dir.mkdir(exist_ok=True)
    base_files = []
    # A base, a clean and a delayed run of each seed back to back, so that a
    # slow spell of a shared host falls on the three sets alike.
    for seed in DELAY_SEEDS:
        run("plan", seed, DELAY_SECONDS, trace)
        path = base_dir / f"plan-{seed}.json"
        path.write_text(
            pathlib.Path(result_files([seed], trace, False)[0]).read_text())
        base_files.append(str(path))
        run("plan", seed, DELAY_SECONDS, trace)
        run("plan", seed, DELAY_SECONDS, trace, delay)
    clean = flagged(base_files, result_files(DELAY_SEEDS, trace, False))
    check(metric not in clean, f"clean runs flagged {metric} (trace={trace})")
    delayed = flagged(base_files, result_files(DELAY_SEEDS, trace, True))
    check(metric in delayed,
          f"delayed runs did not flag {metric} (trace={trace})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            summary = run(workload, 1, TINY_SECONDS, trace, ("--tiny",))
            if summary is not None:
                check_metrics(workload, trace, summary, declared)
    delay_check(0, "optimize_p50_us")
    delay_check(1, "optimizer.optimize_us")
    if failures:
        print(f"{len(failures)} self-test failure(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
