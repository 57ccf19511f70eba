#include "obs/flight_recorder.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace joinest {

namespace {

std::string LowerCase(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

}  // namespace

const char* QueryRecordApiName(QueryRecord::Api api) {
  switch (api) {
    case QueryRecord::Api::kEstimate:
      return "estimate";
    case QueryRecord::Api::kExecute:
      return "execute";
    case QueryRecord::Api::kExplainAnalyze:
      return "explain_analyze";
  }
  return "?";
}

Status FlightRecorder::Options::Validate() const {
  if (capacity == 0) {
    return InvalidArgument("recorder: capacity must be >= 1");
  }
  if (shards < 1) {
    return InvalidArgument("recorder: shards must be >= 1");
  }
  if (static_cast<size_t>(shards) > capacity) {
    return InvalidArgument("recorder: shards must not exceed capacity");
  }
  if (sample_every_n < 0) {
    return InvalidArgument("recorder: sample_every_n must be >= 0");
  }
  if (slow_query_seconds < 0.0) {
    return InvalidArgument("recorder: slow_query_seconds must be >= 0");
  }
  if (qerror_threshold < 0.0) {
    return InvalidArgument("recorder: qerror_threshold must be >= 0");
  }
  return Status::OK();
}

FlightRecorder::FlightRecorder(Options options)
    : options_(options),
      // Ceiling split so `shards` rings jointly hold >= capacity records.
      shard_capacity_((options.capacity + static_cast<size_t>(options.shards) -
                       1) /
                      static_cast<size_t>(options.shards)) {
  JOINEST_CHECK(options_.Validate().ok()) << "invalid FlightRecorder options";
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool FlightRecorder::ShouldCapture(int64_t seq, const QueryRecord& record,
                                   const char** policy) const {
  const int64_t n = options_.sample_every_n;
  // Deterministic 1-in-N: capture the residue class the seed selects, so a
  // fixed workload produces a fixed sample regardless of timing.
  if (n == 1 || (n > 1 && seq % n == static_cast<int64_t>(
                                         options_.sample_seed %
                                         static_cast<uint64_t>(n)))) {
    *policy = "sample";
    return true;
  }
  if (options_.slow_query_seconds > 0.0 &&
      record.total_seconds >= options_.slow_query_seconds) {
    *policy = "slow";
    return true;
  }
  if (options_.qerror_threshold > 0.0 &&
      record.q_error >= options_.qerror_threshold) {
    *policy = "qerror";
    return true;
  }
  *policy = "sampled_out";
  return false;
}

bool FlightRecorder::Record(QueryRecord record) {
  if (!options_.enabled) return false;
  const int64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const char* policy = nullptr;
  if (!ShouldCapture(seq, record, &policy)) {
    MetricsRegistry::Global()
        .GetCounter("recorder_skipped_total",
                    "query records dropped by the capture policy",
                    {{"policy", policy}})
        .Increment();
    return false;
  }
  record.seq = seq;
  MetricsRegistry::Global()
      .GetCounter("recorder_records_total", "query records captured",
                  {{"api", QueryRecordApiName(record.api)}})
      .Increment();
  captured_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard =
      *shards_[static_cast<size_t>(seq) % static_cast<size_t>(shards_.size())];
  MutexLock lock(shard.mutex);
  if (shard.ring.size() < shard_capacity_) {
    shard.ring.push_back(std::move(record));
  } else {
    shard.ring[static_cast<size_t>(shard.writes) % shard_capacity_] =
        std::move(record);
  }
  ++shard.writes;
  return true;
}

std::vector<QueryRecord> FlightRecorder::Snapshot(size_t last_n) const {
  std::vector<QueryRecord> records;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    records.insert(records.end(), shard->ring.begin(), shard->ring.end());
  }
  // Shards fill round-robin, so merging by sequence number restores global
  // capture order.
  std::sort(records.begin(), records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq < b.seq;
            });
  if (last_n > 0 && records.size() > last_n) {
    records.erase(records.begin(),
                  records.end() - static_cast<long>(last_n));
  }
  return records;
}

void WriteQueryRecordJson(JsonWriter& json, const QueryRecord& record) {
  json.BeginObject();
  json.Key("seq");
  json.Int(record.seq);
  json.Key("api");
  json.String(QueryRecordApiName(record.api));
  json.Key("fingerprint");
  json.Int(static_cast<int64_t>(record.fingerprint));
  json.Key("subplan_fingerprint");
  json.Int(static_cast<int64_t>(record.subplan_fingerprint));
  json.Key("snapshot_version");
  json.Int(static_cast<int64_t>(record.snapshot_version));
  json.Key("cache_hit");
  json.Bool(record.cache_hit);
  json.Key("rule");
  json.String(record.rule);
  json.Key("estimated_rows");
  json.Number(record.estimated_rows);
  json.Key("actual_rows");
  json.Number(record.actual_rows);
  json.Key("q_error");
  json.Number(record.q_error);
  json.Key("per_rule");
  json.BeginArray();
  for (const RuleEstimate& rule : record.per_rule) {
    json.BeginObject();
    json.Key("rule");
    json.String(rule.rule);
    json.Key("rows");
    json.Number(rule.rows);
    json.Key("q_error");
    json.Number(rule.q_error);
    json.EndObject();
  }
  json.EndArray();
  if (!record.join_levels.empty()) {
    json.Key("join_levels");
    json.BeginArray();
    for (const JoinLevel& level : record.join_levels) {
      json.BeginObject();
      json.Key("level");
      json.Int(level.level);
      json.Key("actual");
      json.Number(static_cast<double>(level.actual));
      // "est_ls", "est_m", ..., then "q_ls", "q_m", ...
      for (const RuleEstimate& rule : level.per_rule) {
        json.Key("est_" + LowerCase(rule.rule));
        json.Number(rule.rows);
      }
      for (const RuleEstimate& rule : level.per_rule) {
        json.Key("q_" + LowerCase(rule.rule));
        json.Number(rule.q_error);
      }
      json.Key("subplan_prefix");
      json.Int(static_cast<int64_t>(level.subplan_prefix));
      json.EndObject();
    }
    json.EndArray();
  }
  if (!record.pt_filters.empty()) {
    json.Key("pt_filters");
    json.BeginArray();
    for (const PtFilterRow& filter : record.pt_filters) {
      json.BeginObject();
      json.Key("table");
      json.String(filter.table);
      json.Key("column");
      json.String(filter.column);
      json.Key("pass_rate");
      json.Number(filter.pass_rate);
      json.EndObject();
    }
    json.EndArray();
    json.Key("pt_rows_pruned");
    json.Number(record.pt_rows_pruned);
  }
  json.Key("operators_total");
  json.Int(record.operators_total);
  json.Key("kernels_specialized");
  json.Int(record.kernels_specialized);
  json.Key("latency");
  json.BeginObject();
  json.Key("parse_seconds");
  json.Number(record.parse_seconds);
  json.Key("estimate_seconds");
  json.Number(record.estimate_seconds);
  json.Key("pt_seconds");
  json.Number(record.pt_seconds);
  json.Key("execute_seconds");
  json.Number(record.execute_seconds);
  json.Key("total_seconds");
  json.Number(record.total_seconds);
  json.EndObject();
  json.EndObject();
}

std::string QueryRecordsToNdjson(const std::vector<QueryRecord>& records) {
  std::string out;
  for (const QueryRecord& record : records) {
    JsonWriter json;
    WriteQueryRecordJson(json, record);
    out += json.str();
    out += '\n';
  }
  return out;
}

std::string QueryRecordsToJson(const std::vector<QueryRecord>& records) {
  JsonWriter json;
  json.BeginObject();
  json.Key("querylog");
  json.BeginObject();
  json.Key("count");
  json.Int(static_cast<int64_t>(records.size()));
  json.Key("records");
  json.BeginArray();
  for (const QueryRecord& record : records) {
    WriteQueryRecordJson(json, record);
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace joinest
