#!/usr/bin/env python3
"""Run one workload of the joinest benchmark and print its result.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Run from the root of a joinest checkout. Builds the driver from the
checkout's own sources (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs it, and prints the driver's result document
(host block, every metric with unit and sample count) followed, as the last
line, by the summary object {"correct", "attempted", "failed", "metrics"}
built from it.
With --trace 1 the per-layer metrics are reported instead, and the exported
Chrome trace must pass tools/check_trace.py. The result document is also
kept under .bench_build/perfbench/results/ for compare.py.

Exits non-zero without a summary when the sources are missing, the build
fails, or the driver fails or overruns.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# How long run.py waits for the driver; a whole run stays under three
# minutes.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log.read_text(encoding="utf-8").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def source_revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=False, timeout=10)
        lines = rev.stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if rev.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test table sizes")
    parser.add_argument("--inject-optimizer-delay-us", type=float, default=0,
                        help="self-test: spin inside every optimizer call")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no joinest sources under {ROOT}; run from a checkout")
    build()

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    command = [str(DRIVER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(results),
               "--git-rev", source_revision()]
    if args.tiny:
        command.append("--tiny")
    if args.inject_optimizer_delay_us > 0:
        command += ["--inject-optimizer-delay-us",
                    str(args.inject_optimizer_delay_us)]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver overran {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"driver exited with {run.returncode}")
    document = json.loads(lines[-1])

    if args.trace:
        trace = results / f"trace-{args.workload}-{args.seed}.json"
        check = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_trace.py"),
             str(trace)], capture_output=True, text=True, check=False)
        document["attempted"] += 1
        if check.returncode != 0:
            sys.stderr.write(check.stdout + check.stderr)
            document["failed"] += 1
            document["notes"].append(
                "exported trace rejected by tools/check_trace.py")
        document["error_rate"] = document["failed"] / document["attempted"]
    summary = {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in document["metrics"].items()},
    }

    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.tiny:
        name += "-tiny"
    if args.inject_optimizer_delay_us > 0:
        name += "-delayed"
    (results / f"{name}.json").write_text(json.dumps(document) + "\n",
                                          encoding="utf-8")
    print(json.dumps(document))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
