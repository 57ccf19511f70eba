// Lock-cheap metrics registry: Counter, Gauge, HistogramMetric, Timer.
//
// The registry is the process-wide telemetry surface the ROADMAP's
// production north star needs: estimator q-error distributions, executor
// build/probe counts and batch fill rates all land here and are read
// back through one scrape. Design points:
//
//  * Registration (GetCounter/GetGauge/GetHistogram) takes a mutex once per
//    (name, labels) pair and returns a stable reference; the handle is then
//    safe to cache and use forever.
//  * Increments never take a lock: Counter and HistogramMetric spread their state
//    over a small fixed set of cache-line-padded shards, each updated with
//    relaxed atomics; a thread hashes to a shard once (thread-local slot)
//    and stays there. Scrape() merges the shards, so totals are exact —
//    concurrent increments from N workers scrape to exactly the sum.
//  * Exposition: WriteJson (machine consumption via common/json_writer,
//    the format BENCH_*.json files assemble from) and PrometheusText (the
//    standard text format, for a future serving endpoint).
//
// Histograms use exponential bucket upper bounds (factor > 1), the right
// shape for both latencies and q-errors, whose interesting mass spans
// orders of magnitude.

#ifndef JOINEST_OBS_METRICS_H_
#define JOINEST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/thread_annotations.h"

namespace joinest {

// Label dimensions attached to a metric, e.g. {{"rule", "LS"}}. Order is
// normalised (sorted by key) at registration, so {{a},{b}} and {{b},{a}}
// name the same time series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

namespace internal_metrics {

// Number of concurrent-update shards. A thread picks a slot once
// (thread-local) and keeps it; more threads than shards just share slots —
// still exact, marginally more contended.
inline constexpr int kShards = 16;

// Stable shard slot of the calling thread.
int ThreadShard();

// One cache line per shard so concurrent writers do not false-share.
struct alignas(64) ShardedInt64 {
  std::atomic<int64_t> value{0};
};

// Relaxed add of a double onto an atomic (CAS loop; fetch_add on
// atomic<double> is C++20 but not universally lock-free).
void AtomicAddDouble(std::atomic<double>& target, double delta);

}  // namespace internal_metrics

// Monotone event count.
class Counter {
 public:
  void Add(int64_t delta) {
    shards_[internal_metrics::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal_metrics::ShardedInt64, internal_metrics::kShards>
      shards_;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { bits_.store(value, std::memory_order_relaxed); }
  double Value() const { return bits_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> bits_{0.0};
};

// Bucket layout shared by all histograms of a family: ascending upper
// bounds; an implicit +inf bucket catches the overflow.
struct HistogramBuckets {
  std::vector<double> bounds;

  // `count` buckets with bounds start, start*factor, start*factor^2, ...
  // factor must exceed 1.
  static HistogramBuckets Exponential(double start, double factor, int count);
  // Default for q-errors: 1, 1.25, 1.5625, ... ~20 decades of drift.
  static HistogramBuckets QError();
  // Default for timings in seconds: 1us .. ~65s, factor 4.
  static HistogramBuckets Seconds();
};

class HistogramMetric {
 public:
  explicit HistogramMetric(HistogramBuckets buckets);

  void Observe(double value);

  // Merged-shard snapshot: per-bucket counts (last entry is the +inf
  // bucket), total count, and sum of observed values.
  struct Snapshot {
    std::vector<int64_t> bucket_counts;
    int64_t count = 0;
    double sum = 0;
  };
  Snapshot Snap() const;
  const std::vector<double>& bounds() const { return bounds_; }

  // Estimated q-quantile (q in [0, 1]) of the observed distribution,
  // assuming values are uniform within each bucket (see BucketQuantile).
  // Returns 0 when the histogram is empty.
  double ApproxQuantile(double q) const;

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<int64_t>> buckets;
    std::atomic<double> sum{0.0};
    explicit Shard(size_t n) : buckets(n) {}
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII wall-clock timer: observes the enclosed scope's seconds into a
// histogram on destruction. A null histogram makes it a no-op.
class Timer {
 public:
  explicit Timer(HistogramMetric* histogram)
      : histogram_(histogram),
        start_(histogram ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point()) {}
  ~Timer() {
    if (histogram_ == nullptr) return;
    histogram_->Observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  HistogramMetric* histogram_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  // The process-wide registry. Tests may construct private instances.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent: the first call registers, later calls return the same
  // instance. CHECK-fails if `name`+`labels` was registered as a different
  // metric type. `help` is kept from the first registration.
  Counter& GetCounter(const std::string& name, const std::string& help = "",
                      MetricLabels labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& help = "",
                  MetricLabels labels = {});
  HistogramMetric& GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const HistogramBuckets& buckets =
                              HistogramBuckets::Seconds(),
                          MetricLabels labels = {});

  // Exposition. Series are emitted in registration order within a family,
  // families sorted by name — a stable order so repeated scrapes diff
  // cleanly.
  void WriteJson(JsonWriter& json) const;
  std::string JsonText() const;
  std::string PrometheusText() const;

  // Drops every registered metric. Registered references become invalid —
  // test isolation only.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    std::string name;
    std::string help;
    MetricLabels labels;
    int64_t order = 0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Series& GetSeries(Kind kind, const std::string& name,
                    const std::string& help, MetricLabels labels,
                    const HistogramBuckets* buckets)
      JOINEST_EXCLUDES(mutex_);
  // Called by the exposition paths, which hold the registry lock across the
  // whole scrape so one scrape sees one consistent registration set.
  std::vector<const Series*> SortedSeries() const JOINEST_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // Keyed by name + rendered label string.
  std::map<std::string, Series> series_ JOINEST_GUARDED_BY(mutex_);
  int64_t next_order_ JOINEST_GUARDED_BY(mutex_) = 0;
};

// "name{k=\"v\",...}" (bare name when unlabeled) — the Prometheus series
// notation, also used as the JSON "series" field.
std::string RenderSeriesName(const std::string& name,
                             const MetricLabels& labels);

// Quantile estimate over explicit bucket counts: `bounds` are ascending
// upper bounds, `counts` has one extra entry for the +inf bucket (the
// Snapshot layout). Linear interpolation inside the target bucket; the
// first bucket interpolates from 0, the +inf bucket returns its lower
// bound (the last finite bound — no upper edge to interpolate toward).
// Shared by HistogramMetric::ApproxQuantile and the accuracy monitor's
// window statistics, so both report identical quantile semantics.
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<int64_t>& counts, double q);

}  // namespace joinest

#endif  // JOINEST_OBS_METRICS_H_
