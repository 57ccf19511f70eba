#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"
#include "common/random.h"

namespace joinest {

namespace {

// Everything the enumerators need about one base table.
struct ScanInfo {
  std::vector<Predicate> filter;
  double raw_rows = 0;
  double est_rows = 0;
  double scan_cost = 0;
};

struct SearchState {
  const Catalog* catalog;
  const QuerySpec* spec;
  const OptimizerOptions* options;
  const AnalyzedQuery* analyzed;
  std::vector<ScanInfo> scans;
};

// The best way found to produce one composite (a table mask), as a
// back-pointer: a join entry joins its `outer` composite with the rest of
// its mask by `method`; a base-table entry has outer == 0. Enumeration
// handles only entries; BuildPlan turns the winner's into plan nodes once.
struct Entry {
  bool valid = false;
  double cost = 0;
  double rows = 0;
  uint64_t outer = 0;
  JoinMethod method = JoinMethod::kNestedLoop;
};

Entry ScanEntry(const SearchState& state, int t) {
  return {true, state.scans[t].scan_cost, state.scans[t].est_rows, 0,
          JoinMethod::kNestedLoop};
}

// Best (cost, method) for joining an outer composite with an inner input of
// `inner_rows` estimated rows, producible once at `inner_cost`. When the
// inner is a base-table scan, `inner_raw_rows` is its unfiltered size
// (enables index nested loops); pass a negative value for composite inners.
// Returns +inf cost if no method applies.
std::pair<double, JoinMethod> BestJoinMethod(const SearchState& state,
                                             double outer_rows,
                                             double inner_rows,
                                             double inner_cost,
                                             double inner_raw_rows,
                                             bool has_keys, double out_rows) {
  double best_cost = std::numeric_limits<double>::infinity();
  JoinMethod best_method = JoinMethod::kNestedLoop;
  for (JoinMethod method : state.options->methods) {
    if (!has_keys && method != JoinMethod::kNestedLoop &&
        method != JoinMethod::kBlockNestedLoop) {
      continue;  // Only the nested-loop variants run cartesian products.
    }
    if (method == JoinMethod::kIndexNestedLoop && inner_raw_rows < 0) {
      continue;  // Index joins need a base table to index.
    }
    const double cost =
        JoinStepCost(state.options->cost, method, outer_rows, inner_rows,
                     inner_cost, inner_raw_rows, out_rows);
    if (cost < best_cost) {
      best_cost = cost;
      best_method = method;
    }
  }
  return {best_cost, best_method};
}

// The step every enumerator takes: joins the disjoint composites `outer`
// and `inner` (`connected` iff a join predicate crosses them) with the
// cheapest method. Invalid if no method applies.
Entry JoinStep(const SearchState& state, uint64_t outer,
               const Entry& outer_entry, uint64_t inner,
               const Entry& inner_entry, bool connected) {
  const double out_rows = state.analyzed->JoinComposites(
      outer, outer_entry.rows, inner, inner_entry.rows);
  // Index joins need the inner to be a bare base-table scan.
  const double inner_raw =
      std::popcount(inner) == 1
          ? state.scans[std::countr_zero(inner)].raw_rows
          : -1.0;
  const auto [step_cost, method] =
      BestJoinMethod(state, outer_entry.rows, inner_entry.rows,
                     inner_entry.cost, inner_raw, connected, out_rows);
  if (!std::isfinite(step_cost)) return {};
  JOINEST_CHECK_CARDINALITY(out_rows) << "estimated join output";
  JOINEST_DCHECK_GE(step_cost, 0.0) << "negative join step cost";
  return {true, outer_entry.cost + step_cost, out_rows, outer, method};
}

// Materialises the plan of composite `mask` from the back-pointers
// `entry_of(mask)`: the one place plan nodes are made.
template <typename EntryOf>
std::unique_ptr<PlanNode> BuildPlan(const SearchState& state,
                                    const EntryOf& entry_of, uint64_t mask) {
  if (std::popcount(mask) == 1) {
    const ScanInfo& scan = state.scans[std::countr_zero(mask)];
    auto node = MakeScanNode(std::countr_zero(mask), scan.filter);
    node->estimated_rows = scan.est_rows;
    node->estimated_cost = scan.scan_cost;
    return node;
  }
  const Entry& entry = entry_of(mask);
  const uint64_t inner = mask ^ entry.outer;
  auto node = MakeJoinNode(
      entry.method, BuildPlan(state, entry_of, entry.outer),
      BuildPlan(state, entry_of, inner),
      state.analyzed->EligiblePredicatesBetween(entry.outer, inner));
  node->estimated_rows = entry.rows;
  node->estimated_cost = entry.cost;
  return node;
}

template <typename EntryOf>
StatusOr<OptimizedPlan> FinishPlan(const SearchState& state,
                                   const EntryOf& entry_of) {
  const uint64_t full = ~uint64_t{0} >> (64 - state.spec->num_tables());
  const Entry& entry = entry_of(full);
  OptimizedPlan plan;
  JOINEST_DCHECK_GE(entry.cost, 0.0) << "negative plan cost";
  JOINEST_CHECK_CARDINALITY(entry.rows) << "final plan cardinality";
  plan.estimated_cost = entry.cost;
  plan.estimated_rows = entry.rows;
  plan.root = BuildPlan(state, entry_of, full);
  plan.join_order = PlanLeafOrder(*plan.root);
  plan.intermediate_estimates = PlanIntermediateEstimates(*plan.root);
  return plan;
}

// One entry per table subset, the singletons filled in.
std::vector<Entry> DpTable(const SearchState& state) {
  std::vector<Entry> dp(uint64_t{1} << state.spec->num_tables());
  for (int t = 0; t < state.spec->num_tables(); ++t) {
    dp[uint64_t{1} << t] = ScanEntry(state, t);
  }
  return dp;
}

// Selinger-style DP over table subsets, left-deep plans only.
StatusOr<OptimizedPlan> OptimizeDp(const SearchState& state) {
  std::vector<Entry> dp = DpTable(state);
  const uint64_t full = dp.size() - 1;
  for (uint64_t mask = 1; mask <= full; ++mask) {
    const Entry& entry = dp[mask];
    if (!entry.valid) continue;
    // Prefer connected extensions; allow cartesian only if this composite
    // has none (disconnected join graph).
    const uint64_t rest = full & ~mask;
    const uint64_t connected = state.analyzed->JoinNeighbors(mask);
    const uint64_t candidates =
        state.options->avoid_cartesian && connected != 0 ? connected : rest;
    for (uint64_t bits = candidates; bits != 0; bits &= bits - 1) {
      const uint64_t inner = bits & -bits;
      const Entry extended = JoinStep(state, mask, entry, inner, dp[inner],
                                      (connected & inner) != 0);
      if (!extended.valid) continue;
      Entry& slot = dp[mask | inner];
      if (!slot.valid || extended.cost < slot.cost) slot = extended;
    }
  }
  if (!dp[full].valid) {
    return Internal("dynamic programming found no complete plan");
  }
  return FinishPlan(state, [&](uint64_t mask) -> const Entry& {
    return dp[mask];
  });
}

// Bushy DP (DPsub): for every table subset, consider every split into two
// disjoint composites. O(3^n) candidate splits.
StatusOr<OptimizedPlan> OptimizeDpBushy(const SearchState& state) {
  std::vector<Entry> dp = DpTable(state);
  const uint64_t full = dp.size() - 1;
  for (uint64_t mask = 3; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Single table.
    // Two passes: connected splits first; cartesian only if none produced
    // a plan (disconnected sub-queries).
    for (const bool allow_cartesian : {false, true}) {
      if (allow_cartesian &&
          (dp[mask].valid || !state.options->avoid_cartesian)) {
        break;
      }
      for (uint64_t outer = (mask - 1) & mask; outer != 0;
           outer = (outer - 1) & mask) {
        const uint64_t inner = mask ^ outer;
        if (!dp[outer].valid || !dp[inner].valid) continue;
        const bool connected = state.analyzed->MasksConnected(outer, inner);
        if (!connected && !allow_cartesian &&
            state.options->avoid_cartesian) {
          continue;
        }
        const Entry joined =
            JoinStep(state, outer, dp[outer], inner, dp[inner], connected);
        if (!joined.valid) continue;
        Entry& slot = dp[mask];
        if (!slot.valid || joined.cost < slot.cost) slot = joined;
      }
    }
  }
  if (!dp[full].valid) {
    return Internal("bushy dynamic programming found no complete plan");
  }
  return FinishPlan(state, [&](uint64_t mask) -> const Entry& {
    return dp[mask];
  });
}

// ---- Enumerators over left-deep join orders (II / SA / greedy).

// Cost/rows of one fixed left-deep order, without materialising plan nodes
// (the randomized inner loops evaluate thousands of orders). `prefixes`,
// if given, receives the entry of every prefix, shortest first.
Entry CostOfOrder(const SearchState& state, const std::vector<int>& order,
                  std::vector<Entry>* prefixes = nullptr) {
  uint64_t mask = uint64_t{1} << order[0];
  Entry entry = ScanEntry(state, order[0]);
  if (prefixes != nullptr) prefixes->push_back(entry);
  for (size_t i = 1; i < order.size(); ++i) {
    const uint64_t inner = uint64_t{1} << order[i];
    entry = JoinStep(state, mask, entry, inner, ScanEntry(state, order[i]),
                     state.analyzed->MasksConnected(mask, inner));
    if (!entry.valid) return entry;
    if (prefixes != nullptr) prefixes->push_back(entry);
    mask |= inner;
  }
  return entry;
}

// Materialises the plan for a fixed order (used once, on the winner).
StatusOr<OptimizedPlan> FinishOrder(const SearchState& state,
                                    const std::vector<int>& order) {
  std::vector<Entry> prefixes;
  const bool valid = CostOfOrder(state, order, &prefixes).valid;
  JOINEST_CHECK(valid) << "order became infeasible";
  // A left-deep plan asks only for its prefixes, one per size.
  return FinishPlan(state, [&](uint64_t mask) -> const Entry& {
    return prefixes[std::popcount(mask) - 1];
  });
}

// Iterative Improvement: random restarts, each descending by random swap
// moves until the move budget is exhausted.
StatusOr<OptimizedPlan> OptimizeIterativeImprovement(
    const SearchState& state) {
  const int n = state.spec->num_tables();
  const auto& knobs = state.options->randomized;
  Rng rng(knobs.seed);
  std::vector<int> best_order;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < knobs.restarts; ++restart) {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    Entry current = CostOfOrder(state, order);
    if (!current.valid) continue;
    for (int move = 0; move < knobs.max_moves; ++move) {
      const int a = static_cast<int>(rng.NextBounded(n));
      const int b = static_cast<int>(rng.NextBounded(n));
      if (a == b) continue;
      std::swap(order[a], order[b]);
      const Entry proposal = CostOfOrder(state, order);
      if (proposal.valid && proposal.cost < current.cost) {
        current = proposal;  // Downhill move: keep.
      } else {
        std::swap(order[a], order[b]);  // Revert.
      }
    }
    if (current.cost < best_cost) {
      best_cost = current.cost;
      best_order = order;
    }
  }
  if (best_order.empty()) {
    return Internal("iterative improvement found no feasible order");
  }
  return FinishOrder(state, best_order);
}

// Simulated annealing with a geometric cooling schedule.
StatusOr<OptimizedPlan> OptimizeSimulatedAnnealing(const SearchState& state) {
  const int n = state.spec->num_tables();
  const auto& knobs = state.options->randomized;
  Rng rng(knobs.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  Entry current = CostOfOrder(state, order);
  // A fully random start may be infeasible only if some method set forbids
  // it; retry a few shuffles, then fall back to the identity order.
  for (int attempt = 0; !current.valid && attempt < 8; ++attempt) {
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    current = CostOfOrder(state, order);
  }
  if (!current.valid) {
    std::iota(order.begin(), order.end(), 0);
    current = CostOfOrder(state, order);
    if (!current.valid) {
      return Internal("simulated annealing found no feasible order");
    }
  }
  std::vector<int> best_order = order;
  double best_cost = current.cost;
  double temperature = knobs.initial_temperature * current.cost;
  for (int move = 0; move < knobs.max_moves; ++move) {
    const int a = static_cast<int>(rng.NextBounded(n));
    const int b = static_cast<int>(rng.NextBounded(n));
    if (a == b) continue;
    std::swap(order[a], order[b]);
    const Entry proposal = CostOfOrder(state, order);
    bool accept = false;
    if (proposal.valid) {
      const double delta = proposal.cost - current.cost;
      accept = delta < 0 ||
               rng.NextDouble() < std::exp(-delta / std::max(temperature,
                                                             1e-9));
    }
    if (accept) {
      current = proposal;
      if (current.cost < best_cost) {
        best_cost = current.cost;
        best_order = order;
      }
    } else {
      std::swap(order[a], order[b]);
    }
    temperature *= knobs.cooling;
  }
  return FinishOrder(state, best_order);
}

// Greedy minimum-result-size enumerator: O(n^2) plans considered.
StatusOr<OptimizedPlan> OptimizeGreedy(const SearchState& state) {
  const int n = state.spec->num_tables();
  // Seed with the table whose effective cardinality is smallest — the
  // classic heuristic starting point.
  int seed = 0;
  for (int t = 1; t < n; ++t) {
    if (state.scans[t].est_rows < state.scans[seed].est_rows) seed = t;
  }
  std::vector<int> order = {seed};
  Entry current = ScanEntry(state, seed);
  uint64_t mask = uint64_t{1} << seed;

  for (int step = 1; step < n; ++step) {
    int best_t = -1;
    Entry best;
    bool best_connected = false;
    const uint64_t neighbors = state.analyzed->JoinNeighbors(mask);
    for (int t = 0; t < n; ++t) {
      if ((mask >> t) & 1) continue;
      const bool connected = (neighbors >> t) & 1;
      if (state.options->avoid_cartesian && best_connected && !connected) {
        continue;
      }
      const Entry extended = JoinStep(state, mask, current, uint64_t{1} << t,
                                      ScanEntry(state, t), connected);
      if (!extended.valid) continue;
      const bool better =
          best_t < 0 ||
          (connected && !best_connected) ||  // Connected beats cartesian.
          (connected == best_connected &&
           (extended.rows < best.rows ||
            (extended.rows == best.rows && extended.cost < best.cost)));
      if (better) {
        best_t = t;
        best = extended;
        best_connected = connected;
      }
    }
    if (best_t < 0) return Internal("greedy enumeration stuck");
    current = best;
    mask |= uint64_t{1} << best_t;
    order.push_back(best_t);
  }
  return FinishOrder(state, order);
}

}  // namespace

StatusOr<OptimizedPlan> OptimizeQuery(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const OptimizerOptions& options) {
  if (options.methods.empty()) {
    return InvalidArgument("no join methods enabled");
  }
  JOINEST_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      AnalyzedQuery::Create(catalog, spec, options.estimation));

  SearchState state;
  state.catalog = &catalog;
  state.spec = &spec;
  state.options = &options;
  state.analyzed = &analyzed;

  const int n = spec.num_tables();
  state.scans.resize(n);
  for (int t = 0; t < n; ++t) {
    ScanInfo& scan = state.scans[t];
    // Push the local predicates the rewrite produced. With PTC enabled this
    // includes derived predicates (early selection — the reason PTC alone
    // already improves plans); without it, only the user's own predicates.
    for (const Predicate& p : analyzed.predicates()) {
      if (p.kind != Predicate::Kind::kJoin && p.left.table == t) {
        scan.filter.push_back(p);
      }
    }
    scan.raw_rows = catalog.stats(spec.tables[t].catalog_id).row_count;
    scan.est_rows = analyzed.BaseCardinality(t);
    scan.scan_cost = ScanCost(options.cost, scan.raw_rows,
                              static_cast<int>(scan.filter.size()));
  }

  if (n == 1) return FinishOrder(state, {0});

  switch (options.enumerator) {
    case OptimizerOptions::Enumerator::kGreedy:
      return OptimizeGreedy(state);
    case OptimizerOptions::Enumerator::kIterativeImprovement:
      return OptimizeIterativeImprovement(state);
    case OptimizerOptions::Enumerator::kSimulatedAnnealing:
      return OptimizeSimulatedAnnealing(state);
    case OptimizerOptions::Enumerator::kDynamicProgramming:
      // DP space is 2^n (3^n bushy); beyond the caps fall back to the
      // polynomial greedy enumerator (documented behaviour).
      if (options.allow_bushy && n <= 13) return OptimizeDpBushy(state);
      if (n > 16) return OptimizeGreedy(state);
      return OptimizeDp(state);
  }
  return Internal("unknown enumerator");
}

}  // namespace joinest
