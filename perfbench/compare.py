#!/usr/bin/env python3
"""Spread and regression checks over benchmark result documents.

    compare.py spread RESULT.json [RESULT.json ...]
    compare.py compare --base A.json ... --candidate B.json ...
                       [--layer-bound 0.25]

Result documents are what perfbench/run.py keeps under
.bench_build/perfbench/results/ (one JSON object with a "metrics" map of
name -> {"value", "unit"}); the summary line run.py prints last works too.

spread: per metric, the median and the distance between the first and
third quartile as a share of the median (statistics.quantiles, n=4), next
to the metric's bound from BENCHMARK.json.

compare: per metric, how much worse the candidates' median is than the
bases' median, as a share of the base median, in the metric's "better"
direction. An end-to-end metric is flagged when that exceeds its bound;
a per-layer time (unit us, ms or s) when it exceeds --layer-bound. Exits 1
when anything is flagged.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYER_TIME_UNITS = ("us", "ms", "s")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_values(paths):
    """name -> (unit, [value per file])."""
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines = f.read().strip().splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        for name, metric in metrics.items():
            entry = values.setdefault(name, (metric["unit"], []))
            entry[1].append(float(metric["value"]))
    return values


def quartile_spread(values):
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def spread(paths):
    bounds = load_benchmark()
    values = load_values(paths)
    print(f"{'metric':34} {'unit':6} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  runs")
    worst = 0.0
    for name, (unit, vals) in values.items():
        median, share = quartile_spread(vals)
        bound = bounds.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            worst = max(worst, share / bound)
            if share > bound / 3:
                mark = "  > bound/3"
        print(f"{name:34} {unit:6} {median:14.6g} {share:8.4f} "
              f"{'' if bound is None else bound:>6}  {len(vals)}{mark}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


def compare(base_paths, candidate_paths, layer_bound):
    bounds = load_benchmark()
    base = load_values(base_paths)
    candidate = load_values(candidate_paths)
    flagged = []
    print(f"{'metric':34} {'base':>14} {'candidate':>14} {'worse':>8} "
          f"{'bound':>6}")
    for name, (unit, base_values) in base.items():
        if name not in candidate:
            continue
        b = statistics.median(base_values)
        c = statistics.median(candidate[name][1])
        spec = bounds.get(name)
        if spec is not None:
            better, bound = spec["better"], spec["bound"]
        elif unit in LAYER_TIME_UNITS:
            better, bound = "lower", layer_bound
        else:
            better, bound = None, None
        worse = None
        if better is not None and b:
            worse = (c - b) / b if better == "lower" else (b - c) / b
        mark = ""
        if worse is not None and worse > bound:
            flagged.append(name)
            mark = "  FLAGGED"
        print(f"{name:34} {b:14.6g} {c:14.6g} "
              f"{'' if worse is None else f'{worse:8.4f}':>8} "
              f"{'' if bound is None else bound:>6}{mark}")
    print("flagged: " + (", ".join(flagged) if flagged else "none"))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("results", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("--base", nargs="+", required=True)
    c.add_argument("--candidate", nargs="+", required=True)
    c.add_argument("--layer-bound", type=float, default=0.25)
    args = parser.parse_args()
    if args.mode == "spread":
        return spread(args.results)
    return compare(args.base, args.candidate, args.layer_bound)


if __name__ == "__main__":
    sys.exit(main())
