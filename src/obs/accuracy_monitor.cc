#include "obs/accuracy_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace joinest {

namespace {

// All windows bucket into the shared q-error layout so monitor quantiles
// and the scraped estimator_qerror histograms agree bucket-for-bucket.
const std::vector<double>& QErrorBounds() {
  static const std::vector<double>* bounds =
      new std::vector<double>(HistogramBuckets::QError().bounds);
  return *bounds;
}

std::string LevelLabel(int level) {
  return level == 0 ? "query" : std::to_string(level);
}

}  // namespace

Status AccuracyMonitor::Options::Validate() const {
  if (window == 0) {
    return InvalidArgument("accuracy: window must be >= 1");
  }
  if (min_samples < 1) {
    return InvalidArgument("accuracy: min_samples must be >= 1");
  }
  if (drift_factor <= 1.0) {
    return InvalidArgument("accuracy: drift_factor must exceed 1");
  }
  return Status::OK();
}

AccuracyMonitor::AccuracyMonitor(Options options) : options_(options) {
  JOINEST_CHECK(options_.Validate().ok()) << "invalid AccuracyMonitor options";
}

void AccuracyMonitor::Ingest(const QueryRecord& record) {
  if (!options_.enabled) return;
  if (record.actual_rows < 0.0) return;  // Not executed: no ground truth.
  MutexLock lock(mutex_);
  for (const RuleEstimate& rule : record.per_rule) {
    if (rule.q_error > 0.0) {
      Observe(rule.rule, 0, record.snapshot_version, rule.q_error);
    }
  }
  for (const JoinLevel& level : record.join_levels) {
    for (const RuleEstimate& rule : level.per_rule) {
      if (rule.q_error > 0.0) {
        Observe(rule.rule, level.level, record.snapshot_version, rule.q_error);
      }
    }
  }
}

void AccuracyMonitor::Observe(const std::string& rule, int level,
                              uint64_t version, double q_error) {
  const Key key{rule, level, version};
  Window& window = windows_[key];
  if (window.values.size() < options_.window) {
    window.values.push_back(q_error);
  } else {
    window.values[static_cast<size_t>(window.writes) % options_.window] =
        q_error;
  }
  ++window.writes;
  if (static_cast<int64_t>(window.values.size()) < options_.min_samples) {
    return;
  }

  uint64_t baseline_version = 0;
  const Window* baseline = Baseline(rule, level, &baseline_version);
  // A window never drifts against itself: the oldest qualifying version IS
  // the baseline the estimator was validated on.
  if (baseline == nullptr || baseline == &window) return;

  const WindowStats stats = Stats(key, window);
  const WindowStats base_stats =
      Stats(Key{rule, level, baseline_version}, *baseline);
  if (base_stats.p95 <= 0.0) return;
  const double ratio = stats.p95 / base_stats.p95;
  const bool drifted = ratio >= options_.drift_factor;
  MetricsRegistry::Global()
      .GetGauge("estimator_qerror_drift",
                "p95 q-error relative to the snapshot-baseline window",
                {{"rule", rule}, {"level", LevelLabel(level)}})
      .Set(drifted ? ratio : 0.0);
  if (drifted && !window.drifted) {
    ++alerts_;
    MetricsRegistry::Global()
        .GetCounter("service_accuracy_alerts_total",
                    "estimator accuracy drift alerts raised")
        .Increment();
    JOINEST_LOG_EVERY_N(WARN, 16)
        << "estimator q-error drift: rule " << rule << " level "
        << LevelLabel(level) << " snapshot v" << version << " p95 "
        << stats.p95 << " is " << ratio << "x baseline v" << baseline_version
        << " p95 " << base_stats.p95 << " (factor "
        << options_.drift_factor << ")";
  }
  window.drifted = drifted;
}

const AccuracyMonitor::Window* AccuracyMonitor::Baseline(
    const std::string& rule, int level, uint64_t* version_out) const {
  // windows_ is ordered by (rule, level, version), so the first qualifying
  // entry in the (rule, level) range is the lowest version.
  const Key from{rule, level, 0};
  for (auto it = windows_.lower_bound(from); it != windows_.end(); ++it) {
    if (std::get<0>(it->first) != rule || std::get<1>(it->first) != level) {
      break;
    }
    if (static_cast<int64_t>(it->second.values.size()) >=
        options_.min_samples) {
      *version_out = std::get<2>(it->first);
      return &it->second;
    }
  }
  return nullptr;
}

AccuracyMonitor::WindowStats AccuracyMonitor::Stats(
    const Key& key, const Window& window) const {
  WindowStats stats;
  stats.rule = std::get<0>(key);
  stats.level = std::get<1>(key);
  stats.snapshot_version = std::get<2>(key);
  stats.count = static_cast<int64_t>(window.values.size());
  if (window.values.empty()) return stats;

  const std::vector<double>& bounds = QErrorBounds();
  std::vector<int64_t> counts(bounds.size() + 1, 0);
  double sum_log = 0.0;
  for (double value : window.values) {
    const size_t bucket = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    ++counts[bucket];
    sum_log += std::log(std::max(value, 1.0));
    stats.max = std::max(stats.max, value);
  }
  stats.mean_log = sum_log / static_cast<double>(window.values.size());
  stats.geomean = std::exp(stats.mean_log);
  stats.p50 = BucketQuantile(bounds, counts, 0.50);
  stats.p95 = BucketQuantile(bounds, counts, 0.95);
  stats.drifted = window.drifted;
  return stats;
}

std::vector<AccuracyMonitor::WindowStats> AccuracyMonitor::Report() const {
  MutexLock lock(mutex_);
  std::vector<WindowStats> report;
  report.reserve(windows_.size());
  for (const auto& [key, window] : windows_) {
    WindowStats stats = Stats(key, window);
    uint64_t baseline_version = 0;
    const Window* baseline =
        Baseline(std::get<0>(key), std::get<1>(key), &baseline_version);
    if (baseline != nullptr) {
      if (baseline == &window) {
        stats.is_baseline = true;
        stats.drift_ratio = 1.0;
      } else {
        const WindowStats base_stats = Stats(
            Key{std::get<0>(key), std::get<1>(key), baseline_version},
            *baseline);
        if (base_stats.p95 > 0.0) stats.drift_ratio = stats.p95 / base_stats.p95;
      }
    }
    report.push_back(std::move(stats));
  }
  return report;
}

int64_t AccuracyMonitor::alerts_total() const {
  MutexLock lock(mutex_);
  return alerts_;
}

}  // namespace joinest
