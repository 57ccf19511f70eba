#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/json_writer.h"
#include "common/thread_pool.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpinFor(double seconds) {
  const double end = NowSeconds() + seconds;
  while (NowSeconds() < end) {
  }
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name, const Samples& samples,
                           double p, double scale, const std::string& unit) {
  if (!samples.Resolves(p)) {
    Note(name + ": " + std::to_string(samples.size()) +
         " samples leave fewer than ten beyond the percentile");
  }
  Add(name, samples.Percentile(p) * scale, unit, samples.size());
}

namespace {

void WriteHost(joinest::JsonWriter& json, const HostInfo& host) {
  const char* threads = std::getenv("JOINEST_THREADS");
  json.BeginObject();
  json.Key("nproc");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("pool_threads");
  json.Int(joinest::NumPoolThreads());
  json.Key("JOINEST_THREADS");
  json.String(threads != nullptr ? threads : "");
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("contracts");
  json.Bool(JOINEST_CONTRACTS != 0);
  json.Key("git_rev");
  json.String(host.git_rev);
  json.Key("workload");
  json.String(host.workload);
  json.Key("seed");
  json.Int(static_cast<int64_t>(host.seed));
  json.EndObject();
}

}  // namespace

std::string Report::DocumentJson(const HostInfo& host, bool trace,
                                 int64_t attempted, int64_t failed) const {
  joinest::JsonWriter json;
  json.BeginObject();
  json.Key("host");
  WriteHost(json, host);
  json.Key("trace");
  json.Bool(trace);
  json.Key("attempted");
  json.Int(attempted);
  json.Key("failed");
  json.Int(failed);
  json.Key("error_rate");
  json.Number(attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  json.Key("metrics");
  json.BeginObject();
  for (const Entry& e : entries_) {
    json.Key(e.name);
    json.BeginObject();
    json.Key("value");
    json.Number(e.value);
    json.Key("unit");
    json.String(e.unit);
    if (e.samples >= 0) {
      json.Key("samples");
      json.Int(e.samples);
    }
    json.EndObject();
  }
  json.EndObject();
  json.Key("notes");
  json.BeginArray();
  for (const std::string& note : notes_) json.String(note);
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace perfbench
