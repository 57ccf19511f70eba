// Plan execution with timing and per-operator statistics.

#ifndef JOINEST_EXECUTOR_EXECUTE_H_
#define JOINEST_EXECUTOR_EXECUTE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "executor/operator.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct ExecutionResult {
  // Rows produced by the query root (1 for COUNT(*) queries).
  int64_t output_rows = 0;
  // The COUNT(*) value when the query aggregates; for non-aggregating
  // queries, equal to output_rows.
  int64_t count = 0;
  double seconds = 0;
  // Pre-order (operator name, rows produced, inclusive wall-clock) over the
  // compiled tree.
  std::vector<OperatorStats> operators;
  // Stats of each plan node's root operator (the one whose row count is
  // comparable with the node's estimated_rows). Points into the caller's
  // plan tree; EXPLAIN ANALYZE joins this against the estimates.
  struct PlanNodeStats {
    const PlanNode* node = nullptr;
    OperatorStats stats;
  };
  std::vector<PlanNodeStats> node_stats;
  // Of operators_total, how many ran a type-specialized batch kernel
  // (Operator::specialized()). Feeds the flight recorder's
  // kernel-vs-generic selection field.
  int64_t operators_total = 0;
  int64_t kernels_specialized = 0;
};

// Compiles and runs `plan`, topping it with the query's projection or
// COUNT(*). The root is driven batch-at-a-time; joins and scans stream,
// and nothing is retained beyond counts. A non-null `selections` restricts
// base-table scans to pre-computed row-id lists (the predicate-transfer
// path); since the lists may only omit rows that cannot join, results are
// bit-identical with and without them.
StatusOr<ExecutionResult> ExecutePlan(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const PlanNode& plan,
                                      const ScanSelections* selections =
                                          nullptr);

// Row counts of the join nodes on the left spine of a left-deep `plan`
// (every join's right input is a scan), bottom-up: entry k is the composite
// of the plan's first k+2 leaves (PlanLeafOrder), as executed under the
// plan's own predicates. Read from `result.node_stats` of `plan`'s run.
// Empty for a bushy plan or a single scan.
std::vector<int64_t> LeftSpineJoinRows(const PlanNode& plan,
                                       const ExecutionResult& result);

// Greedy connected join order starting from table 0 (a cartesian step is
// appended only when the join graph is disconnected).
std::vector<int> CanonicalJoinOrder(int num_tables,
                                    const std::vector<Predicate>& joins);

// The canonical safe plan: left-deep hash joins in CanonicalJoinOrder with
// local predicates pushed into the scans (nested loops only for a rare
// cartesian step). This is the plan whose COUNT(*) defines ground truth.
std::unique_ptr<PlanNode> CanonicalSafePlan(const QuerySpec& spec);

// Ground truth without an optimizer: the exact result count of `spec`,
// i.e. ExecutePlan over CanonicalSafePlan. Used by tests and benches to
// compare estimates with true cardinalities.
StatusOr<int64_t> TrueResultSize(const Catalog& catalog,
                                 const QuerySpec& spec);

// Exact sizes of every composite along a left-deep join order: entry i is
// the true cardinality of joining order[0..i+1] with every predicate of
// `spec` contained in that prefix (the quantity the paper's "correct answer
// is exactly 100" claims refer to). One ExecutePlan of the left-deep
// hash-join plan along `order`, read through LeftSpineJoinRows. Pass the
// closed predicate set to price estimates of closed composites.
StatusOr<std::vector<int64_t>> TruePrefixSizes(const Catalog& catalog,
                                               const QuerySpec& spec,
                                               const std::vector<int>& order);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_EXECUTE_H_
