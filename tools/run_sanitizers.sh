#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers, one out-of-tree build per
# configuration:
#
#   * asan_ubsan — AddressSanitizer + UndefinedBehaviorSanitizer over the
#     full ctest suite;
#   * tsan — ThreadSanitizer over the tests that exercise concurrency: the
#     shared work-stealing pool (thread_pool_test hammers stealing, nested
#     submission, and shutdown-with-pending-tasks directly),
#     the partitioned sketch ANALYZE path (pool tasks per row-range
#     partition),
#     the executor (parity_test, executor_test), and the estimation
#     service (service_test
#     races sessions against concurrent ANALYZE snapshot republishes and
#     hammers the sharded result cache), the query flight recorder
#     (flight_recorder_test drives N writers into the mutex-sharded ring),
#     the cardinality feedback store (feedback_test races ingestion
#     against concurrent consultation and ANALYZE aging), and tracing and
#     EXPLAIN ANALYZE (obs_test: sharded metrics under concurrent writers,
#     spans recorded into a caller-owned session).
#
# The tsan filter is passed unquoted: quotes inside the variable would
# reach ctest literally and drop the first and last names from the regex.
#
# Usage: tools/run_sanitizers.sh [build-root]   (default: build-sanitize)

set -euo pipefail

cd "$(dirname "$0")/.."
root="${1:-build-sanitize}"

run_job() {
  local name="$1" sanitizers="$2" test_filter="$3"
  local dir="${root}/${name}"
  echo "== ${name}: -fsanitize=${sanitizers} =="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DJOINEST_SANITIZE="${sanitizers}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)" >/dev/null
  ctest --test-dir "${dir}" --output-on-failure ${test_filter}
}

# UBSan: abort on the first report so ctest fails loudly.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export TSAN_OPTIONS="halt_on_error=1"

run_job asan_ubsan "address,undefined" ""
run_job tsan "thread" "-R sketch_test|storage_test|parity_test|executor_test|service_test|pt_test|feedback_test|thread_pool_test|flight_recorder_test|obs_test"

echo "All sanitizer jobs passed."
