// Query flight recorder: a bounded, mutex-sharded ring of structured
// per-query records.
//
// ExplainAnalyze answers "how accurate was the estimator on THIS query";
// the flight recorder answers "how accurate has it been lately". Every
// Session::Estimate / Execute / ExplainAnalyze call (cache hits included)
// builds a QueryRecord — fingerprint, snapshot version, per-rule
// estimates, actual cardinality when the query ran, q-errors,
// predicate-transfer pass rates, kernel selection, and a latency
// breakdown — and offers it to the database's recorder. A capture policy
// decides which offers are kept:
//
//   * sample-1-in-N (deterministic: capture when seq ≡ seed (mod N)),
//   * always-capture slow queries (total latency ≥ slow_query_seconds),
//   * always-capture bad estimates (q-error ≥ qerror_threshold).
//
// Records land in one of `shards` independent mutex-protected rings
// (selected round-robin by sequence number), so concurrent sessions never
// contend on a single recorder lock; Snapshot() merges the shards back
// into capture order. When a ring wraps, its oldest records are dropped —
// the recorder is a flight recorder, not an audit log.
//
// Export is NDJSON (one record per line — the format tools/check_querylog.py
// validates) or a JSON document; the record schema is documented in
// docs/OBSERVABILITY.md. The accuracy monitor (obs/accuracy_monitor.h)
// consumes executed records from this stream.

#ifndef JOINEST_OBS_FLIGHT_RECORDER_H_
#define JOINEST_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace joinest {

// The estimate-versus-actual record, in the one form EXPLAIN ANALYZE
// reports and the flight recorder logs (obs/explain_analyze.h,
// QueryRecord below; EstimateResult::per_rule in service/database.h).

// One rule's estimate, with its q-error once the query ran.
struct RuleEstimate {
  std::string rule;    // "LS", "M", "SS".
  double rows = 0.0;
  double q_error = 0.0;  // 0 when no actual cardinality is known.
};

// One join level of a left-deep plan: the composite of its first level + 1
// leaves, its executed row count, and each rule's estimate of it.
struct JoinLevel {
  int level = 0;  // 1 = first join in the chosen order.
  std::string prefix;  // "S x M x B"
  int64_t actual = 0;
  std::vector<RuleEstimate> per_rule;
  // Canonical fingerprint of the join prefix this level measured
  // (service/fingerprint.h SubPlanFingerprint); 0 when not computed.
  // Feedback-enabled sessions feed (subplan_prefix, actual) pairs into
  // the database's FeedbackStore.
  uint64_t subplan_prefix = 0;
};

// One executed predicate-transfer probe, as plain data (the service layer
// converts src/pt/'s PtFilterStats so obs does not depend on it).
struct PtFilterRow {
  std::string table;
  std::string column;
  bool forward = true;
  int64_t probed = 0;
  int64_t passed = 0;
  double pass_rate = 1.0;
};

// One captured query. Plain data: the service layer fills it in (the
// recorder itself never computes estimates or q-errors — joinest_obs sits
// below the estimator in the link order).
struct QueryRecord {
  // Which facade call produced the record.
  enum class Api { kEstimate, kExecute, kExplainAnalyze };

  int64_t seq = 0;  // Capture sequence number, assigned by the recorder.
  Api api = Api::kEstimate;
  uint64_t fingerprint = 0;
  // Canonical full-join sub-plan fingerprint (SubPlanFingerprint over every
  // table); 0 for records that never computed one (plain Estimate calls).
  uint64_t subplan_fingerprint = 0;
  uint64_t snapshot_version = 0;
  bool cache_hit = false;

  std::string rule;             // Headline rule name for this session.
  double estimated_rows = 0.0;  // Headline estimate.
  double actual_rows = -1.0;    // -1 when the query was not executed.
  double q_error = 0.0;         // Headline q-error; 0 when no actual.
  std::vector<RuleEstimate> per_rule;
  // Per-join-level accuracy, available from ExplainAnalyze calls.
  std::vector<JoinLevel> join_levels;

  std::vector<PtFilterRow> pt_filters;
  double pt_rows_pruned = 0.0;

  int64_t operators_total = 0;        // Operators in the executed plan.
  int64_t kernels_specialized = 0;    // Of those, type-specialized ones.

  // Latency breakdown, seconds. Stage timings are self times; total is
  // inclusive of every stage the call ran (parse is amortised at Prepare
  // time and carried on the prepared query).
  double parse_seconds = 0.0;
  double estimate_seconds = 0.0;
  double pt_seconds = 0.0;
  double execute_seconds = 0.0;
  double total_seconds = 0.0;
};

const char* QueryRecordApiName(QueryRecord::Api api);

class FlightRecorder {
 public:
  struct Options {
    bool enabled = false;
    size_t capacity = 1024;  // Records kept across all shards.
    int shards = 4;
    // Capture every N-th offered record (1 = every record, 0 = none except
    // policy overrides below).
    int64_t sample_every_n = 1;
    uint64_t sample_seed = 0;  // Shifts which residue class is sampled.
    // Capture regardless of sampling when total_seconds >= this (off at 0).
    double slow_query_seconds = 0.0;
    // Capture regardless of sampling when q_error >= this (off at 0).
    double qerror_threshold = 0.0;

    [[nodiscard]] Status Validate() const;

    Options& set_enabled(bool v) { enabled = v; return *this; }
    Options& set_capacity(size_t v) { capacity = v; return *this; }
    Options& set_shards(int v) { shards = v; return *this; }
    Options& set_sample_every_n(int64_t v) { sample_every_n = v; return *this; }
    Options& set_sample_seed(uint64_t v) { sample_seed = v; return *this; }
    Options& set_slow_query_seconds(double v) {
      slow_query_seconds = v;
      return *this;
    }
    Options& set_qerror_threshold(double v) {
      qerror_threshold = v;
      return *this;
    }
  };

  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const Options& options() const { return options_; }
  bool enabled() const { return options_.enabled; }

  // Offers a record for capture. Assigns the sequence number, applies the
  // capture policy, and returns true iff the record was kept. Thread-safe;
  // disabled recorders return false after one atomic increment.
  bool Record(QueryRecord record);

  // Captured records in capture order (oldest first). With last_n > 0,
  // only the most recent last_n.
  std::vector<QueryRecord> Snapshot(size_t last_n = 0) const;

  int64_t total_offered() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  int64_t total_captured() const {
    return captured_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    mutable Mutex mutex;
    std::vector<QueryRecord> ring JOINEST_GUARDED_BY(mutex);
    int64_t writes JOINEST_GUARDED_BY(mutex) = 0;
  };

  bool ShouldCapture(int64_t seq, const QueryRecord& record,
                     const char** policy) const;

  const Options options_;
  const size_t shard_capacity_;
  std::atomic<int64_t> next_seq_{0};
  std::atomic<int64_t> captured_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

// One record as a single-line JSON object (the NDJSON row shape).
void WriteQueryRecordJson(JsonWriter& json, const QueryRecord& record);

// One record per line, "\n"-terminated.
std::string QueryRecordsToNdjson(const std::vector<QueryRecord>& records);

// {"querylog": {"count": N, "records": [...]}}.
std::string QueryRecordsToJson(const std::vector<QueryRecord>& records);

}  // namespace joinest

#endif  // JOINEST_OBS_FLIGHT_RECORDER_H_
