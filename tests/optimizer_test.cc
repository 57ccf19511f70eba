// Tests for optimizer/: cost model shape, DP and greedy enumeration, method
// selection, cartesian avoidance, the §8 plan-choice phenomena, and a golden
// file that pins every enumerator's plans bit for bit.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "estimator/presets.h"
#include "executor/execute.h"
#include "gtest/gtest.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "rewrite/transitive_closure.h"
#include "storage/datagen.h"
#include "storage/datasets.h"
#include "tests/test_util.h"
#include "workloads/generator.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

// ---------------------------------------------------------------- Cost

TEST(CostModelTest, ScanLinearInRows) {
  CostParams params;
  EXPECT_GT(ScanCost(params, 1000, 0), ScanCost(params, 100, 0));
  EXPECT_GT(ScanCost(params, 100, 2), ScanCost(params, 100, 0));
}

TEST(CostModelTest, NestedLoopQuadratic) {
  CostParams params;
  const double small = JoinStepCost(params, JoinMethod::kNestedLoop, 10, 10,
                                    10, 10, 10);
  const double big = JoinStepCost(params, JoinMethod::kNestedLoop, 1000, 1000,
                                  1000, 1000, 10);
  EXPECT_GT(big, small * 1000);
}

TEST(CostModelTest, NestedLoopFreeWhenOuterEmpty) {
  // The trap: believed-zero outer makes NL look free.
  CostParams params;
  EXPECT_NEAR(JoinStepCost(params, JoinMethod::kNestedLoop, 0, 1e6, 1e6, 1e6,
                           0),
              0, 1e-9);
}

TEST(CostModelTest, HashBeatsNestedLoopOnLargeEqualInputs) {
  CostParams params;
  const double nl =
      JoinStepCost(params, JoinMethod::kNestedLoop, 1e4, 1e4, 1e4, 1e4, 1e4);
  const double hash =
      JoinStepCost(params, JoinMethod::kHash, 1e4, 1e4, 1e4, 1e4, 1e4);
  EXPECT_LT(hash, nl);
}

TEST(CostModelTest, BlockNLBeatsTupleNLForMultiRowOuter) {
  CostParams params;
  const double nl =
      JoinStepCost(params, JoinMethod::kNestedLoop, 100, 1e4, 1e4, 1e4, 100);
  const double bnl = JoinStepCost(params, JoinMethod::kBlockNestedLoop, 100,
                                  1e4, 1e4, 1e4, 100);
  EXPECT_LT(bnl, nl);
  // At one (or zero) outer rows they converge (one inner production).
  const double nl1 =
      JoinStepCost(params, JoinMethod::kNestedLoop, 1, 1e4, 1e4, 1e4, 1);
  const double bnl1 = JoinStepCost(params, JoinMethod::kBlockNestedLoop, 1,
                                   1e4, 1e4, 1e4, 1);
  EXPECT_DOUBLE_EQ(nl1, bnl1);
}

TEST(CostModelTest, IndexNLAmortisesOverSmallOuter) {
  CostParams params;
  // Tiny outer: index build dominates but beats re-scanning for NL.
  const double inl = JoinStepCost(params, JoinMethod::kIndexNestedLoop, 100,
                                  1e5, 1e5, 1e5, 100);
  const double nl = JoinStepCost(params, JoinMethod::kNestedLoop, 100, 1e5,
                                 1e5, 1e5, 100);
  EXPECT_LT(inl, nl);
}

// ---------------------------------------------------------------- Plans

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    auto add = [&](const std::string& name, const std::string& col,
                   int64_t rows, int64_t d) {
      Table table = Table::FromColumns(
          Schema({{col, TypeKind::kInt64}}),
          {ToValueColumn(MakeUniformColumn(rows, d, rng))});
      JOINEST_CHECK(catalog_.AddTable(name, std::move(table)).ok());
    };
    add("A", "a", 100, 100);
    add("B", "b", 1000, 100);
    add("C", "c", 5000, 100);
  }

  QuerySpec ChainQuery() {
    QuerySpec spec = MakeCountSpec(catalog_, 3);
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
    return spec;
  }

  Catalog catalog_;
};

TEST_F(OptimizerTest, ProducesExecutablePlan) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  auto truth = TrueResultSize(catalog_, ChainQuery());
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(OptimizerTest, JoinOrderCoversAllTables) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  std::vector<int> order = plan->join_order;
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan->intermediate_estimates.size(), 2u);
}

TEST_F(OptimizerTest, GreedyAlsoExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kGreedy;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  auto truth = TrueResultSize(catalog_, ChainQuery());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(OptimizerTest, DpNeverWorseThanGreedyByItsOwnCost) {
  OptimizerOptions dp_options;
  dp_options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto dp = OptimizeQuery(catalog_, ChainQuery(), dp_options);
  ASSERT_TRUE(dp.ok());
  OptimizerOptions greedy_options = dp_options;
  greedy_options.enumerator = OptimizerOptions::Enumerator::kGreedy;
  auto greedy = OptimizeQuery(catalog_, ChainQuery(), greedy_options);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(dp->estimated_cost, greedy->estimated_cost + 1e-9);
}

TEST_F(OptimizerTest, AvoidsCartesianWhenConnected) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  // Chain A-B-C: the order must not join A and C first (no predicate).
  const std::vector<int>& order = plan->join_order;
  EXPECT_FALSE((order[0] == 0 && order[1] == 2) ||
               (order[0] == 2 && order[1] == 0));
}

TEST_F(OptimizerTest, CartesianAllowedWhenDisconnected) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);  // A, B without predicates.
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root->method, JoinMethod::kNestedLoop);
  EXPECT_DOUBLE_EQ(plan->estimated_rows, 100.0 * 1000);
}

TEST_F(OptimizerTest, SingleTableQueryIsScan) {
  QuerySpec spec = MakeCountSpec(catalog_, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(50)));
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(plan->root->filter.size(), 1u);
}

TEST_F(OptimizerTest, RestrictedMethodsHonoured) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  options.methods = {JoinMethod::kSortMerge};
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->method, JoinMethod::kSortMerge);
  EXPECT_EQ(plan->root->left->method, JoinMethod::kSortMerge);
}

TEST_F(OptimizerTest, IterativeImprovementExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kIterativeImprovement;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, SimulatedAnnealingExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kSimulatedAnnealing;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, RandomizedEnumeratorsNearDpOnSmallQueries) {
  // With ample restarts on a 3-table query, local search should find the
  // DP optimum (the search space has only 6 orders).
  OptimizerOptions dp_options;
  dp_options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto dp = OptimizeQuery(catalog_, ChainQuery(), dp_options);
  ASSERT_TRUE(dp.ok());
  for (const auto enumerator :
       {OptimizerOptions::Enumerator::kIterativeImprovement,
        OptimizerOptions::Enumerator::kSimulatedAnnealing}) {
    OptimizerOptions options = dp_options;
    options.enumerator = enumerator;
    options.randomized.restarts = 16;
    options.randomized.max_moves = 500;
    auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(dp->estimated_cost, plan->estimated_cost + 1e-9);
    EXPECT_NEAR(plan->estimated_cost, dp->estimated_cost,
                dp->estimated_cost * 0.25);
  }
}

TEST_F(OptimizerTest, RandomizedDeterministicForSeed) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kSimulatedAnnealing;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  options.randomized.seed = 99;
  auto a = OptimizeQuery(catalog_, ChainQuery(), options);
  auto b = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->join_order, b->join_order);
  EXPECT_DOUBLE_EQ(a->estimated_cost, b->estimated_cost);
}

TEST_F(OptimizerTest, BushyDpExecutesCorrectly) {
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, BushyNeverCostsMoreThanLeftDeep) {
  // The bushy search space strictly contains the left-deep one.
  OptimizerOptions left_deep;
  left_deep.estimation = PresetOptions(AlgorithmPreset::kELS);
  OptimizerOptions bushy = left_deep;
  bushy.allow_bushy = true;
  auto ld_plan = OptimizeQuery(catalog_, ChainQuery(), left_deep);
  auto bushy_plan = OptimizeQuery(catalog_, ChainQuery(), bushy);
  ASSERT_TRUE(ld_plan.ok() && bushy_plan.ok());
  EXPECT_LE(bushy_plan->estimated_cost, ld_plan->estimated_cost + 1e-9);
}

TEST_F(OptimizerTest, BushyCanWinOnDumbbellQuery) {
  // Two cheap pairs bridged by an expensive middle: classic bushy-win
  // shape. At minimum the bushy plan must execute correctly; also check
  // that a genuinely bushy shape (join with a join on the right) is at
  // least representable by running one explicitly.
  Rng rng(8);
  Catalog catalog;
  auto add = [&](const std::string& name, int64_t rows, int64_t d) {
    Table table = Table::FromColumns(
        Schema({{name + "_k", TypeKind::kInt64}}),
        {ToValueColumn(MakeUniformColumn(rows, d, rng))});
    JOINEST_CHECK(catalog.AddTable(name, std::move(table)).ok());
  };
  add("A1", 200, 50);
  add("A2", 200, 50);
  add("B1", 200, 50);
  add("B2", 200, 50);
  QuerySpec spec = MakeCountSpec(catalog, 4);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog, spec, *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, *TrueResultSize(catalog, spec));
}

TEST_F(OptimizerTest, JoinCompositesGeneralisesJoinCardinality) {
  auto analyzed = AnalyzedQuery::Create(catalog_, ChainQuery(),
                                        PresetOptions(AlgorithmPreset::kELS));
  ASSERT_TRUE(analyzed.ok());
  const double via_table =
      analyzed->JoinCardinality(0b001, analyzed->BaseCardinality(0), 1);
  const double via_masks = analyzed->JoinComposites(
      0b001, analyzed->BaseCardinality(0), 0b010,
      analyzed->BaseCardinality(1));
  EXPECT_DOUBLE_EQ(via_table, via_masks);
  EXPECT_TRUE(analyzed->MasksConnected(0b001, 0b010));
  // With closure, A-C gains a derived predicate; without it they are
  // disconnected.
  EXPECT_TRUE(analyzed->MasksConnected(0b001, 0b100));
  auto no_ptc = AnalyzedQuery::Create(
      catalog_, ChainQuery(), PresetOptions(AlgorithmPreset::kSMNoPtc));
  ASSERT_TRUE(no_ptc.ok());
  EXPECT_FALSE(no_ptc->MasksConnected(0b001, 0b100));
}

TEST_F(OptimizerTest, BushyHandlesDisconnectedGraph) {
  // Two tables, no predicate: the bushy DP's cartesian second pass must
  // still produce a plan.
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, spec, *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100 * 1000);
}

TEST(OptimizerScaleTest, SeventeenTablesFallBackToGreedy) {
  // Above the DP cap the optimizer silently switches to greedy; the plan
  // must still cover every table and estimate something finite.
  Catalog catalog;
  QuerySpec spec;
  spec.count_star = true;
  for (int t = 0; t < 17; ++t) {
    AddStatsOnlyTable(catalog, "T" + std::to_string(t), 100 + 10 * t,
                      {50.0 + t});
    ASSERT_TRUE(spec.AddTable(catalog, "T" + std::to_string(t)).ok());
  }
  for (int t = 0; t + 1 < 17; ++t) {
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{t, 0}, ColumnRef{t + 1, 0}));
  }
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<int> order = plan->join_order;
  std::sort(order.begin(), order.end());
  for (int t = 0; t < 17; ++t) EXPECT_EQ(order[t], t);
  EXPECT_TRUE(std::isfinite(plan->estimated_rows));
}

TEST_F(OptimizerTest, NoMethodsIsError) {
  OptimizerOptions options;
  options.methods.clear();
  EXPECT_FALSE(OptimizeQuery(catalog_, ChainQuery(), options).ok());
}

TEST_F(OptimizerTest, PushdownFollowsClosureSwitch) {
  QuerySpec spec = ChainQuery();
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(10)));
  // With PTC: derived predicates land on B and C scans too.
  OptimizerOptions with_ptc;
  with_ptc.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, with_ptc);
  ASSERT_TRUE(plan.ok());
  int filtered_scans = 0;
  std::vector<const PlanNode*> stack = {plan->root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PlanNode::Kind::kScan) {
      if (!node->filter.empty()) ++filtered_scans;
    } else {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  EXPECT_EQ(filtered_scans, 3);

  // Without PTC: only table A's scan carries a filter.
  OptimizerOptions no_ptc;
  no_ptc.estimation = PresetOptions(AlgorithmPreset::kSMNoPtc);
  auto plan2 = OptimizeQuery(catalog_, spec, no_ptc);
  ASSERT_TRUE(plan2.ok());
  filtered_scans = 0;
  stack = {plan2->root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PlanNode::Kind::kScan) {
      if (!node->filter.empty()) ++filtered_scans;
    } else {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  EXPECT_EQ(filtered_scans, 1);
}

// ------------------------------------------------------ §8 plan choice

class Section8PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PaperDatasetOptions options;
    options.with_payload = false;
    JOINEST_CHECK(BuildPaperDataset(catalog_, options).ok());
    spec_ = MakeCountSpec(catalog_, 4);
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}));
    spec_.predicates.push_back(
        Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(100)));
  }
  Catalog catalog_;
  QuerySpec spec_;
};

TEST_F(Section8PlanTest, AllPresetsReturnCorrectCount) {
  for (AlgorithmPreset preset : PaperPresets()) {
    OptimizerOptions options;
    options.estimation = PresetOptions(preset);
    auto plan = OptimizeQuery(catalog_, spec_, options);
    ASSERT_TRUE(plan.ok()) << PresetName(preset);
    auto result = ExecutePlan(catalog_, spec_, *plan->root);
    ASSERT_TRUE(result.ok()) << PresetName(preset);
    EXPECT_EQ(result->count, 100) << PresetName(preset);
  }
}

TEST_F(Section8PlanTest, ELSEstimatesAllOneHundred) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec_, options);
  ASSERT_TRUE(plan.ok());
  for (double estimate : plan->intermediate_estimates) {
    EXPECT_DOUBLE_EQ(estimate, 100);
  }
}

TEST_F(Section8PlanTest, RuleMUnderestimatesCatastrophically) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kSM);
  auto plan = OptimizeQuery(catalog_, spec_, options);
  ASSERT_TRUE(plan.ok());
  // Final estimate collapses to ~0 while the truth is 100.
  EXPECT_LT(plan->intermediate_estimates.back(), 1e-6);
}

TEST_F(Section8PlanTest, SSSUnderestimatesLessThanM) {
  OptimizerOptions m_options, ss_options;
  m_options.estimation = PresetOptions(AlgorithmPreset::kSM);
  ss_options.estimation = PresetOptions(AlgorithmPreset::kSSS);
  auto m_plan = OptimizeQuery(catalog_, spec_, m_options);
  auto ss_plan = OptimizeQuery(catalog_, spec_, ss_options);
  ASSERT_TRUE(m_plan.ok());
  ASSERT_TRUE(ss_plan.ok());
  EXPECT_GT(ss_plan->intermediate_estimates.back(),
            m_plan->intermediate_estimates.back());
  EXPECT_LT(ss_plan->intermediate_estimates.back(), 100);
}

TEST_F(Section8PlanTest, TrueSizeAfterAnyPrefixIsOneHundred) {
  // The paper: "The correct join result size after any subset of joins has
  // been performed can be shown to be exactly 100." This presumes the
  // CLOSED query (with the derived predicates available) — without closure
  // the {S, B} prefix has no predicate at all.
  QuerySpec closed = spec_;
  closed.predicates = ComputeTransitiveClosure(spec_.predicates).predicates;
  for (const auto& order : std::vector<std::vector<int>>{
           {0, 1, 2, 3}, {2, 3, 1, 0}, {0, 2, 1, 3}}) {
    auto sizes = TruePrefixSizes(catalog_, closed, order);
    ASSERT_TRUE(sizes.ok()) << sizes.status();
    for (int64_t size : *sizes) EXPECT_EQ(size, 100);
  }
}

TEST_F(Section8PlanTest, ELSPlanFasterThanMisledPlans) {
  // The paper's headline: the ELS plan runs an order of magnitude faster.
  // Compare real execution times (generous 2x slack to avoid flakiness;
  // observed gap is ~20-50x).
  auto run = [&](AlgorithmPreset preset) {
    OptimizerOptions options;
    options.estimation = PresetOptions(preset);
    auto plan = OptimizeQuery(catalog_, spec_, options);
    JOINEST_CHECK(plan.ok());
    auto result = ExecutePlan(catalog_, spec_, *plan->root);
    JOINEST_CHECK(result.ok());
    return result->seconds;
  };
  const double els = run(AlgorithmPreset::kELS);
  const double sm = run(AlgorithmPreset::kSM);
  EXPECT_LT(els * 2, sm);
}

// ------------------------------------------- Golden plans, bit for bit

std::string Hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Everything an enumerator decides about one node: shape, methods, pushed
// filters, join predicates, and the exact estimate annotations.
void RenderNode(const PlanNode& node, const Catalog& catalog,
                const QuerySpec& spec, std::ostringstream& out) {
  auto predicates = [&](const std::vector<Predicate>& list) {
    out << "[";
    for (size_t i = 0; i < list.size(); ++i) {
      out << (i > 0 ? "; " : "") << spec.PredicateToString(catalog, list[i]);
    }
    out << "]";
  };
  if (node.kind == PlanNode::Kind::kScan) {
    out << "T" << node.table_index;
    predicates(node.filter);
  } else {
    out << "(";
    RenderNode(*node.left, catalog, spec, out);
    out << " " << JoinMethodName(node.method) << " ";
    RenderNode(*node.right, catalog, spec, out);
    out << " on ";
    predicates(node.join_predicates);
    out << ")";
  }
  out << "{" << Hex(node.estimated_rows) << "," << Hex(node.estimated_cost)
      << "}";
}

std::string RenderPlan(const OptimizedPlan& plan, const Catalog& catalog,
                       const QuerySpec& spec) {
  std::ostringstream out;
  out << "order";
  for (int t : plan.join_order) out << " " << t;
  out << " | ";
  RenderNode(*plan.root, catalog, spec, out);
  out << " | est";
  for (double e : plan.intermediate_estimates) out << " " << Hex(e);
  out << " | " << Hex(plan.estimated_rows) << " " << Hex(plan.estimated_cost);
  return out.str();
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

const char* ShapeName(WorkloadOptions::Shape shape) {
  switch (shape) {
    case WorkloadOptions::Shape::kChain:
      return "chain";
    case WorkloadOptions::Shape::kStar:
      return "star";
    case WorkloadOptions::Shape::kClique:
      return "clique";
    case WorkloadOptions::Shape::kCycle:
      return "cycle";
  }
  return "?";
}

// The golden grid: 4 shapes x 3-8 tables x {one class, foreign-key chain
// (chain only)} x {balanced, Zipf 0.5} x {no, one} local predicate.
std::vector<std::pair<std::string, WorkloadOptions>> GoldenWorkloads() {
  std::vector<std::pair<std::string, WorkloadOptions>> out;
  for (auto shape :
       {WorkloadOptions::Shape::kChain, WorkloadOptions::Shape::kStar,
        WorkloadOptions::Shape::kClique, WorkloadOptions::Shape::kCycle}) {
    for (int n = 3; n <= 8; ++n) {
      for (bool single_class : {true, false}) {
        if (!single_class && shape != WorkloadOptions::Shape::kChain) continue;
        for (bool zipf : {false, true}) {
          // The foreign-key chain ignores the skew knobs.
          if (zipf && !single_class) continue;
          for (bool local : {false, true}) {
            WorkloadOptions options;
            options.shape = shape;
            options.num_tables = n;
            options.single_class = single_class;
            options.balanced = !zipf;
            options.zipf_theta = zipf ? 0.5 : 0.0;
            options.add_local_predicate = local;
            options.seed = 100 + n;
            std::string key = std::string(ShapeName(shape)) + "/" +
                              std::to_string(n) + "/" +
                              (single_class ? "1class" : "fk") + "/" +
                              (zipf ? "zipf" : "bal") + "/" +
                              (local ? "local" : "nolocal");
            out.emplace_back(std::move(key), options);
          }
        }
      }
    }
  }
  return out;
}

struct GoldenLine {
  std::string key;
  std::string rendering;
};

std::vector<GoldenLine> GenerateGoldenLines() {
  std::vector<GoldenLine> lines;
  for (const auto& [workload_key, workload_options] : GoldenWorkloads()) {
    auto w = GenerateWorkload(workload_options);
    JOINEST_CHECK(w.ok()) << w.status();
    for (AlgorithmPreset preset : AllPresets()) {
      std::string preset_name = PresetName(preset);
      preset_name.erase(
          std::remove(preset_name.begin(), preset_name.end(), ' '),
          preset_name.end());
      for (const std::string enumerator :
           {"dp", "bushy", "greedy", "ii", "sa"}) {
        OptimizerOptions options;
        options.estimation = PresetOptions(preset);
        options.allow_bushy = enumerator == "bushy";
        if (enumerator == "greedy") {
          options.enumerator = OptimizerOptions::Enumerator::kGreedy;
        } else if (enumerator == "ii") {
          options.enumerator =
              OptimizerOptions::Enumerator::kIterativeImprovement;
        } else if (enumerator == "sa") {
          options.enumerator = OptimizerOptions::Enumerator::kSimulatedAnnealing;
        }
        auto plan = OptimizeQuery(w->catalog, w->spec, options);
        JOINEST_CHECK(plan.ok()) << plan.status();
        lines.push_back({workload_key + "/" + preset_name + "/" + enumerator,
                         RenderPlan(*plan, w->catalog, w->spec)});
      }
    }
  }
  return lines;
}

std::string GoldenDigestLine(const GoldenLine& line) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                Fnv1a(line.rendering));
  return line.key + " " + digest;
}

// tests/testdata/optimizer_golden.txt holds one digest per (workload,
// preset, enumerator) of the full plan rendering: join order, methods,
// filters, join predicates and hex-float rows/cost of every node plus
// intermediate_estimates. Any change to what the enumerators choose, or to
// a single bit of what they estimate, fails here. Regenerate (only for an
// intended change) with JOINEST_UPDATE_GOLDEN=1 ./optimizer_test.
TEST(OptimizerGoldenTest, PlansBitIdenticalToGolden) {
  const std::string path =
      std::string(JOINEST_TESTDATA_DIR) + "/optimizer_golden.txt";
  const std::vector<GoldenLine> lines = GenerateGoldenLines();
  if (std::getenv("JOINEST_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const GoldenLine& line : lines) out << GoldenDigestLine(line) << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size());
  int mismatches = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string actual = GoldenDigestLine(lines[i]);
    if (actual == golden[i]) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "golden " << golden[i] << "\n  actual " << actual
                    << "\n  plan   " << lines[i].rendering;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Every enumerator's left-deep plan carries, per join, exactly the
// estimate the incremental walk of its own join order produces.
TEST(OptimizerGoldenTest, LeftDeepEstimatesMatchTraceOrder) {
  // The last entry runs with allow_bushy.
  const OptimizerOptions::Enumerator enumerators[] = {
      OptimizerOptions::Enumerator::kDynamicProgramming,
      OptimizerOptions::Enumerator::kGreedy,
      OptimizerOptions::Enumerator::kIterativeImprovement,
      OptimizerOptions::Enumerator::kSimulatedAnnealing,
      OptimizerOptions::Enumerator::kDynamicProgramming};
  for (const auto& [key, workload_options] : GoldenWorkloads()) {
    if (workload_options.num_tables > 6) continue;
    auto w = GenerateWorkload(workload_options);
    ASSERT_TRUE(w.ok()) << w.status();
    for (AlgorithmPreset preset : AllPresets()) {
      auto analyzed =
          AnalyzedQuery::Create(w->catalog, w->spec, PresetOptions(preset));
      ASSERT_TRUE(analyzed.ok());
      for (int e = 0; e < 5; ++e) {
        OptimizerOptions options;
        options.estimation = PresetOptions(preset);
        options.allow_bushy = e == 4;
        options.enumerator = enumerators[e];
        auto plan = OptimizeQuery(w->catalog, w->spec, options);
        ASSERT_TRUE(plan.ok()) << plan.status();
        bool left_deep = true;
        for (const PlanNode* node = plan->root.get();
             node->kind == PlanNode::Kind::kJoin; node = node->left.get()) {
          left_deep = left_deep && node->right->kind == PlanNode::Kind::kScan;
        }
        if (!left_deep) continue;
        const auto trace = analyzed->TraceOrder(plan->join_order);
        ASSERT_EQ(trace.size(), plan->intermediate_estimates.size());
        for (size_t i = 0; i < trace.size(); ++i) {
          EXPECT_EQ(Hex(plan->intermediate_estimates[i]),
                    Hex(trace[i].output_cardinality))
              << key << " " << PresetName(preset) << " enumerator " << e
              << " join " << i;
        }
      }
    }
  }
}

// The adjacency shortcut agrees with the predicate scan on every disjoint
// pair of masks.
TEST(OptimizerGoldenTest, MasksConnectedMatchesEligiblePredicates) {
  for (const auto& [key, workload_options] : GoldenWorkloads()) {
    auto w = GenerateWorkload(workload_options);
    ASSERT_TRUE(w.ok()) << w.status();
    for (AlgorithmPreset preset :
         {AlgorithmPreset::kSMNoPtc, AlgorithmPreset::kELS}) {
      auto analyzed =
          AnalyzedQuery::Create(w->catalog, w->spec, PresetOptions(preset));
      ASSERT_TRUE(analyzed.ok());
      const uint64_t full = (uint64_t{1} << w->spec.num_tables()) - 1;
      int mismatches = 0;
      for (uint64_t left = 1; left <= full; ++left) {
        const uint64_t rest = full & ~left;
        for (uint64_t right = rest; right != 0; right = (right - 1) & rest) {
          if (analyzed->MasksConnected(left, right) ==
              analyzed->EligiblePredicatesBetween(left, right).empty()) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << key << " " << PresetName(preset);
    }
  }
}

}  // namespace
}  // namespace joinest
