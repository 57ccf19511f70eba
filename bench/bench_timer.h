// Median-of-repeats timing shared by the throughput benches (bench_executor,
// bench_pt, bench_service, bench_feedback), built on the nearest-rank
// quantile that bench_feedback's p95 q-error uses too.

#ifndef JOINEST_BENCH_BENCH_TIMER_H_
#define JOINEST_BENCH_BENCH_TIMER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace joinest {

// Nearest-rank q-quantile of `values`, q in (0, 1]: the smallest value with
// at least a q share of the sample at or below it. For an odd count, q = 0.5
// is the middle value.
inline double NearestRank(std::vector<double> values, double q) {
  JOINEST_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// One timed bench mode.
struct ModeResult {
  std::string mode;
  double seconds = 0;  // Median wall-clock of one timed run.
  int64_t count = 0;   // What every run returned.
  double per_sec = 0;  // Work units per second at the median.
};

// Runs `run` once to warm up (touches every page, fills allocators and
// caches), then `repeats` timed times. Each run returns a count (rows
// counted, queries served) that must match the warm-up's, or the numbers
// are noise. `units` is one run's work for the rate (rows scanned).
template <typename Fn>
ModeResult TimeMode(const std::string& mode, int repeats, double units,
                    Fn&& run) {
  ModeResult result;
  result.mode = mode;
  std::fprintf(stderr, "  [%s] warm-up...\n", mode.c_str());
  result.count = run();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const int64_t count = run();
    const auto end = std::chrono::steady_clock::now();
    JOINEST_CHECK_EQ(count, result.count) << mode << " count drifted";
    times.push_back(std::chrono::duration<double>(end - start).count());
  }
  result.seconds = NearestRank(std::move(times), 0.5);
  result.per_sec = result.seconds > 0 ? units / result.seconds : 0;
  return result;
}

// The same, rated by the runs' own count (queries served per second).
template <typename Fn>
ModeResult TimeMode(const std::string& mode, int repeats, Fn&& run) {
  ModeResult result = TimeMode(mode, repeats, 0.0, std::forward<Fn>(run));
  result.per_sec = result.seconds > 0
                       ? static_cast<double>(result.count) / result.seconds
                       : 0;
  return result;
}

}  // namespace joinest

#endif  // JOINEST_BENCH_BENCH_TIMER_H_
