// Timing and reporting: the one place the benchmark turns raw observations
// into reported numbers. Every latency goes through Samples, every number
// that leaves the process goes through Report, and every Report carries the
// host block, so a result file says what produced it.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the monotonic clock.
double NowSeconds();

// Busy-waits `seconds`; the self-test's injected delay (a sleep would give
// the core away and hide the cost from a CPU-bound comparison).
void SpinFor(double seconds);

// Observations of one quantity (latencies in seconds, q-errors, ...),
// pooled over the whole run: on a shared host whose speed drifts over tens
// of seconds, a pooled percentile moves smoothly with the share of the run
// spent slow, where a median over time slices would jump between modes.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Merge(const Samples& other);
  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  // A percentile is reported only with at least ten samples beyond it.
  bool Resolves(double p) const {
    return static_cast<double>(size()) * (1.0 - p) >= 10.0;
  }
  // Linear interpolation between closest ranks, p in [0, 1]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

struct HostInfo {
  std::string workload;
  uint64_t seed = 0;
  std::string git_rev;
};

// Metrics in emission order, each with its unit and, for percentiles and
// per-call means, the sample count it rests on.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  // A percentile of `samples`, scaled by `scale` (e.g. 1e3 for s → ms).
  // Records an insufficiency note when fewer than ten samples lie beyond.
  void AddPercentile(const std::string& name, const Samples& samples,
                     double p, double scale, const std::string& unit);
  void Note(const std::string& note) { notes_.push_back(note); }

  // The result document (host block, operation counts and error rate,
  // metrics with sample counts, notes) as one JSON line.
  std::string DocumentJson(const HostInfo& host, bool trace,
                           int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    int64_t samples = -1;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
