#!/usr/bin/env python3
"""Gates executor benchmark results against a checked-in baseline.

Compares rows_per_sec per mode in a BENCH_executor.json produced by
`bench_executor` with bench/BENCH_executor_baseline.json and exits non-zero
when any mode regresses by more than --threshold (fraction, default 0.20).
A baseline mode missing from the current run fails the gate (a renamed or
dropped mode would otherwise leave its regression unguarded); a current
mode missing from the baseline is only reported, so the baseline does not
have to be regenerated when a mode is added.

The ctest wiring (bench/CMakeLists.txt) runs this against a --smoke run
with a loose threshold: the gate exists to catch order-of-magnitude
regressions (an accidental O(n^2), a lost fast path), not scheduler noise.

--overhead-budget B widens the allowance by the fraction of throughput the
always-compiled-in observability hooks (inert spans, sharded counters,
operator timing) are permitted to cost: the effective threshold becomes
1 - (1 - threshold) * (1 - B). The budget is enforced jointly with the
noise threshold rather than as a separate gate because a single --smoke run
cannot attribute a slowdown to instrumentation vs. scheduler jitter.

--overhead-pair CUR:BASE (repeatable) gates OPT-IN instrumentation the same
way: mode CUR from the current run must stay within the composite allowance
of mode BASE from the BASELINE file; a pair whose CUR mode is missing from
the current run, or whose BASE mode is missing from the baseline, fails.
bench_executor's batch_recorder mode
(batch execution + one flight-recorder capture per run) is gated against
the plain batch baseline this way, pinning recorder-on overhead to the
--overhead-budget (<= 2% in the ctest wiring) on top of run noise.

Regressions are reported in the unified lint format
(`path:line: [bench-regression] message`, see tools/lint/findings.py) so
every `ctest -L analysis` failure reads the same way.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--threshold F]
           [--overhead-budget B] [--overhead-pair CUR:BASE ...]
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "lint"))
from findings import Finding  # noqa: E402


def load_rates(path):
    with open(path) as f:
        data = json.load(f)
    return {m["mode"]: float(m["rows_per_sec"]) for m in data["modes"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_executor.json")
    parser.add_argument("baseline", help="checked-in baseline json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max allowed fractional slowdown per mode")
    parser.add_argument("--overhead-budget", type=float, default=0.0,
                        help="extra fractional slowdown granted to "
                             "instrumentation overhead")
    parser.add_argument("--overhead-pair", action="append", default=[],
                        metavar="CUR:BASE",
                        help="also gate current mode CUR against baseline "
                             "mode BASE (repeatable)")
    args = parser.parse_args()

    current = load_rates(args.current)
    baseline = load_rates(args.baseline)

    # Compose multiplicatively: surviving the noise threshold after paying
    # the overhead budget means rate >= base * (1-threshold) * (1-budget).
    allowed = 1.0 - (1.0 - args.threshold) * (1.0 - args.overhead_budget)

    failures = []

    def missing(message):
        failures.append(Finding(checker="bench-regression",
                                path=args.current, line=0, message=message))
        print(f"MISSING: {message}")

    for mode, base_rate in sorted(baseline.items()):
        if mode not in current:
            missing(f"baseline mode '{mode}' missing from current run")
            continue
        if base_rate <= 0:
            print(f"note: mode '{mode}' has no baseline rate")
            continue
        rate = current[mode]
        ratio = rate / base_rate
        verdict = "ok"
        if ratio < 1.0 - allowed:
            verdict = "REGRESSION"
            failures.append(Finding(
                checker="bench-regression", path=args.current, line=0,
                message=(f"mode '{mode}' regressed to {ratio:.2f}x of "
                         f"baseline ({rate:.0f} vs {base_rate:.0f} rows/s; "
                         f"allowed slowdown {allowed:.0%} vs "
                         f"{args.baseline})")))
        print(f"{mode:12s} baseline {base_rate:14.0f} rows/s   "
              f"current {rate:14.0f} rows/s   ratio {ratio:5.2f}   {verdict}")
    for mode in sorted(set(current) - set(baseline)):
        print(f"note: mode '{mode}' not in baseline (skipped)")

    for pair in args.overhead_pair:
        cur_mode, _, base_mode = pair.partition(":")
        if not cur_mode or not base_mode:
            print(f"error: malformed --overhead-pair '{pair}' "
                  f"(expected CUR:BASE)", file=sys.stderr)
            return 2
        if cur_mode not in current:
            missing(f"overhead-pair mode '{cur_mode}' missing from current "
                    f"run")
            continue
        if base_mode not in baseline:
            missing(f"overhead-pair mode '{base_mode}' missing from "
                    f"{args.baseline}")
            continue
        if baseline[base_mode] <= 0:
            print(f"note: pair mode '{base_mode}' has no baseline rate")
            continue
        rate, base_rate = current[cur_mode], baseline[base_mode]
        ratio = rate / base_rate
        verdict = "ok"
        if ratio < 1.0 - allowed:
            verdict = "REGRESSION"
            failures.append(Finding(
                checker="bench-regression", path=args.current, line=0,
                message=(f"mode '{cur_mode}' runs at {ratio:.2f}x of "
                         f"baseline mode '{base_mode}' ({rate:.0f} vs "
                         f"{base_rate:.0f} rows/s; allowed slowdown "
                         f"{allowed:.0%})")))
        print(f"{cur_mode:>12s} vs {base_mode:12s} "
              f"baseline {base_rate:14.0f} rows/s   "
              f"current {rate:14.0f} rows/s   ratio {ratio:5.2f}   {verdict}")

    if failures:
        for finding in failures:
            print(finding.render(), file=sys.stderr)
        return 1
    print("all modes within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
