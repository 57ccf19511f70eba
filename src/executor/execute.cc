#include "executor/execute.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/check.h"
#include "executor/compile.h"
#include "executor/scan_ops.h"

namespace joinest {

StatusOr<ExecutionResult> ExecutePlan(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const PlanNode& plan,
                                      const ScanSelections* selections) {
  std::vector<Operator*> registry;
  std::vector<PlanNodeOperator> node_roots;
  JOINEST_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> root,
      CompilePlan(catalog, spec, plan, &registry, &node_roots, selections));
  // Top with the query's output shape.
  const bool grouped = spec.count_star && !spec.group_by.empty();
  if (grouped) {
    root = std::make_unique<GroupCountOperator>(std::move(root),
                                                spec.group_by);
  } else if (spec.count_star) {
    root = std::make_unique<CountAggOperator>(std::move(root));
  } else if (!spec.select.empty()) {
    root = std::make_unique<ProjectOperator>(std::move(root), spec.select);
  }
  registry.push_back(root.get());

  ExecutionResult result;
  const auto start = std::chrono::steady_clock::now();
  root->Open();
  RowBatch batch;
  int64_t rows = 0;
  int64_t count = 0;
  while (root->NextBatch(batch)) {
    rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      if (grouped) {
        count += row.back().AsInt64();  // Total over groups = join size.
      } else if (spec.count_star) {
        count = row[0].AsInt64();
      }
    }
  }
  root->Close();
  const auto end = std::chrono::steady_clock::now();

  result.output_rows = rows;
  result.count = spec.count_star ? count : rows;
  result.seconds = std::chrono::duration<double>(end - start).count();
  for (Operator* op : registry) {
    result.operators.push_back(SnapshotOperatorStats(*op));
    ++result.operators_total;
    if (op->specialized()) ++result.kernels_specialized;
  }
  result.node_stats.reserve(node_roots.size());
  for (const PlanNodeOperator& entry : node_roots) {
    result.node_stats.push_back({entry.node, SnapshotOperatorStats(*entry.op)});
  }
  return result;
}

std::vector<int64_t> LeftSpineJoinRows(const PlanNode& plan,
                                       const ExecutionResult& result) {
  std::vector<int64_t> rows;
  for (const PlanNode* node = &plan; node->kind == PlanNode::Kind::kJoin;
       node = node->left.get()) {
    if (node->right->kind != PlanNode::Kind::kScan) return {};
    const auto it = std::find_if(
        result.node_stats.begin(), result.node_stats.end(),
        [node](const ExecutionResult::PlanNodeStats& entry) {
          return entry.node == node;
        });
    JOINEST_CHECK(it != result.node_stats.end())
        << "plan node missing from the execution's node stats";
    rows.push_back(it->stats.rows);
  }
  std::reverse(rows.begin(), rows.end());
  return rows;
}

std::vector<int> CanonicalJoinOrder(int num_tables,
                                    const std::vector<Predicate>& joins) {
  std::vector<bool> used(num_tables, false);
  std::vector<int> order;
  order.push_back(0);
  used[0] = true;
  auto connected = [&](int t) {
    for (const Predicate& p : joins) {
      if ((p.left.table == t && used[p.right.table]) ||
          (p.right.table == t && used[p.left.table])) {
        return true;
      }
    }
    return false;
  };
  while (static_cast<int>(order.size()) < num_tables) {
    int next = -1;
    for (int t = 0; t < num_tables; ++t) {
      if (!used[t] && connected(t)) {
        next = t;
        break;
      }
    }
    if (next < 0) {
      // Disconnected join graph: fall back to a cartesian step.
      for (int t = 0; t < num_tables; ++t) {
        if (!used[t]) {
          next = t;
          break;
        }
      }
    }
    order.push_back(next);
    used[next] = true;
  }
  return order;
}

namespace {

// Left-deep hash joins along `order` (nested loops for a cartesian step),
// each join taking every not-yet-applied join predicate between its new
// table and the prefix, with local predicates pushed into the scans.
std::unique_ptr<PlanNode> LeftDeepHashPlan(const QuerySpec& spec,
                                           const std::vector<int>& order) {
  const int n = spec.num_tables();
  std::vector<std::vector<Predicate>> local(n);
  std::vector<Predicate> joins;
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) {
      joins.push_back(p);
    } else {
      local[p.left.table].push_back(p);
    }
  }

  auto plan = MakeScanNode(order[0], local[order[0]]);
  std::vector<bool> in_plan(n, false);
  in_plan[order[0]] = true;
  std::vector<bool> join_used(joins.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    const int t = order[i];
    std::vector<Predicate> eligible;
    for (size_t j = 0; j < joins.size(); ++j) {
      if (join_used[j]) continue;
      const Predicate& p = joins[j];
      if ((p.left.table == t && in_plan[p.right.table]) ||
          (p.right.table == t && in_plan[p.left.table])) {
        eligible.push_back(p);
        join_used[j] = true;
      }
    }
    auto scan = MakeScanNode(t, local[t]);
    // Pick the method before moving `eligible`: argument evaluation order
    // is unspecified, so folding the emptiness test into the call could
    // read the vector after it was moved from (and did, historically —
    // every canonical join silently compiled as a nested loop).
    const JoinMethod method =
        eligible.empty() ? JoinMethod::kNestedLoop : JoinMethod::kHash;
    plan = MakeJoinNode(method, std::move(plan), std::move(scan),
                        std::move(eligible));
    in_plan[t] = true;
  }
  return plan;
}

}  // namespace

std::unique_ptr<PlanNode> CanonicalSafePlan(const QuerySpec& spec) {
  std::vector<Predicate> joins;
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) joins.push_back(p);
  }
  return LeftDeepHashPlan(spec, CanonicalJoinOrder(spec.num_tables(), joins));
}

StatusOr<int64_t> TrueResultSize(const Catalog& catalog,
                                 const QuerySpec& spec) {
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  JOINEST_ASSIGN_OR_RETURN(
      ExecutionResult result,
      ExecutePlan(catalog, spec, *CanonicalSafePlan(spec)));
  return result.count;
}

StatusOr<std::vector<int64_t>> TruePrefixSizes(
    const Catalog& catalog, const QuerySpec& spec,
    const std::vector<int>& order) {
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> tables(spec.num_tables());
  std::iota(tables.begin(), tables.end(), 0);
  if (sorted != tables) {
    return InvalidArgument("order must cover every table exactly once");
  }
  if (order.size() < 2) return std::vector<int64_t>{};
  const std::unique_ptr<PlanNode> plan = LeftDeepHashPlan(spec, order);
  JOINEST_ASSIGN_OR_RETURN(ExecutionResult result,
                           ExecutePlan(catalog, spec, *plan));
  return LeftSpineJoinRows(*plan, result);
}

}  // namespace joinest
