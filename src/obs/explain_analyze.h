// EXPLAIN ANALYZE: run a plan and report estimated vs. actual cardinalities,
// per-rule (LS/M/SS) estimates with q-errors per join level, and span
// timings, in one structured report.
//
// Everything actual comes from the one run of the plan:
//   * the optimizer's annotations (PlanNode::estimated_rows),
//   * the executor's per-operator statistics (rows, inclusive/self time,
//     batch fill), matched to plan nodes via ExecutionResult::node_stats,
//   * for a left-deep plan, the join levels: level k's actual is the row
//     count of the k-th join on the plan's left spine (LeftSpineJoinRows),
//     i.e. the composite of the first k+1 leaves under the plan's own
//     (transitively closed) predicates — the composite ELS estimates. Each
//     level's estimate is priced with the paper's error measure
//     q = max(est/act, act/est). A bushy plan has no such prefix chain and
//     reports operator rows only.
//
// Under predicate transfer the scans read Bloom-reduced row sets, so an
// intermediate level counts the reduced composite that actually ran (never
// more than the unreduced one); the final level always equals the query's
// count, which the reduction cannot change.
//
// Each join level is estimated under Rule LS (Algorithm ELS), Rule M
// (Selinger) and Rule SS (kComparisonRules, estimator/presets.h), so one
// report reproduces the paper's comparison on a live query. The q-errors
// are also observed into the metrics registry's `estimator_qerror{rule=...}`
// histograms, accumulating a workload-level error distribution across calls.
//
// Join levels, per-rule estimates and predicate-transfer rows use the
// record types the flight recorder logs (obs/flight_recorder.h).
//
// ExplainAnalyze never creates or activates a TraceSession. When the caller
// has one active, the report summarises the events that fall inside its own
// `explain_analyze` span's time window (other threads' spans in that window
// included); the caller owns the session, keeps it active for the call, and
// exports it (ToChromeTraceJson, validated by tools/check_trace.py). With
// no active session the report has no spans.

#ifndef JOINEST_OBS_EXPLAIN_ANALYZE_H_
#define JOINEST_OBS_EXPLAIN_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"
#include "estimator/analyzed_query.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "obs/flight_recorder.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct ExplainAnalyzeOptions {
  // Estimation configuration the plan was (or will be) optimized under;
  // reported as the headline rule. Defaults to Algorithm ELS's settings.
  EstimationOptions estimation;
  // Predicate-transfer row-id selections the plan's scans are restricted
  // to, and the probe statistics to report. Join-level actuals then count
  // the reduced composites (see the file comment). Must outlive the call.
  const ScanSelections* scan_selections = nullptr;
  std::vector<PtFilterRow> predicate_transfer;
};

struct ExplainAnalyzeReport {
  // Rule the headline estimates (plan annotations) were computed under.
  std::string rule;
  int64_t count = 0;        // The query's COUNT(*) (or row count).
  double seconds = 0;       // Wall-clock of the plan execution alone.

  // One row per executed operator, pre-order over the plan tree (plus the
  // final aggregation/projection operator at depth 0). `estimated_rows` is
  // meaningful only when `has_estimate`; an index-nested-loop join absorbs
  // its inner scan, which then reports no actuals (`has_actual` false).
  struct OperatorRow {
    std::string label;
    int depth = 0;
    bool has_estimate = false;
    double estimated_rows = 0;
    bool has_actual = false;
    int64_t actual_rows = 0;
    double inclusive_seconds = 0;
    double self_seconds = 0;
    int64_t batches = 0;
    int64_t batch_rows = 0;
  };
  std::vector<OperatorRow> operators;

  // One row per join level of a left-deep plan, along its leaf order: level
  // k covers the first k+1 tables. Estimates and q-errors under each rule of
  // kComparisonRules, in table order; `actual` is the executed row count of
  // that level's join node. Empty for a bushy plan.
  std::vector<JoinLevel> join_levels;

  // Predicate-transfer probes that ran before the plan (runtime
  // selectivities observed by the reduction). Empty when transfer was off.
  std::vector<PtFilterRow> predicate_transfer;

  // Per-span-name aggregation over the caller's trace events inside this
  // run's `explain_analyze` span; empty when no session was active.
  struct SpanSummary {
    std::string name;
    int64_t count = 0;
    double total_seconds = 0;
  };
  std::vector<SpanSummary> spans;

  int64_t trace_events = 0;   // Events summarised in `spans`.
  int64_t trace_dropped = 0;  // The session's overwritten events so far.

  // Human-readable rendering: operator tree, join-level table, span table.
  std::string FormatText() const;

  // Machine-readable rendering.
  void WriteJson(JsonWriter& json) const;
  std::string ToJson() const;
};

// The paper's error measure: max(est/act, act/est), both sides clamped to
// one row so empty results stay finite.
double QErrorValue(double estimated, double actual);

// Runs `plan` and assembles the report. The plan's estimated_rows
// annotations are reported as-is (pass a plan produced under
// options.estimation for a consistent headline rule).
StatusOr<ExplainAnalyzeReport> ExplainAnalyzePlan(
    const Catalog& catalog, const QuerySpec& spec, const PlanNode& plan,
    const ExplainAnalyzeOptions& options = {});

// Convenience: optimize `spec` under options.estimation (Selinger DP), then
// ExplainAnalyzePlan the chosen plan.
StatusOr<ExplainAnalyzeReport> ExplainAnalyzeQuery(
    const Catalog& catalog, const QuerySpec& spec,
    const ExplainAnalyzeOptions& options = {});

}  // namespace joinest

#endif  // JOINEST_OBS_EXPLAIN_ANALYZE_H_
