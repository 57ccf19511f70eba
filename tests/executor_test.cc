// Tests for executor/: each operator against brute-force expectations, plan
// compilation, and end-to-end execution.

#include <memory>

#include "executor/compile.h"
#include "executor/eval.h"
#include "executor/execute.h"
#include "executor/hash_table.h"
#include "executor/join_ops.h"
#include "executor/scan_ops.h"
#include "gtest/gtest.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

// Drains an operator batch by batch and returns all produced rows.
std::vector<Row> Drain(Operator& op) {
  op.Open();
  std::vector<Row> rows;
  RowBatch batch;
  while (op.NextBatch(batch)) {
    for (int i = 0; i < batch.size(); ++i) rows.push_back(batch.row(i));
  }
  op.Close();
  return rows;
}

Table MakeTable(const std::string& column,
                const std::vector<int64_t>& values) {
  return Table::FromColumns(Schema({{column, TypeKind::kInt64}}),
                            {ToValueColumn(values)});
}

// ---------------------------------------------------------------- Eval

TEST(EvalTest, AllOperators) {
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kEq, V(3)));
  EXPECT_FALSE(EvalCompare(V(3), CompareOp::kEq, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kNe, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kLt, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kLe, V(3)));
  EXPECT_TRUE(EvalCompare(V(4), CompareOp::kGt, V(3)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kGe, V(3)));
  EXPECT_FALSE(EvalCompare(V(2), CompareOp::kGe, V(3)));
}

// ---------------------------------------------------------------- Scan

TEST(SeqScanTest, EmitsAllRowsInOrder) {
  Table table = MakeTable("k", {4, 5, 6});
  SeqScanOperator scan(table, 0);
  const std::vector<Row> rows = Drain(scan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 4);
  EXPECT_EQ(rows[2][0].AsInt64(), 6);
  EXPECT_EQ(scan.rows_produced(), 3);
}

TEST(SeqScanTest, LayoutIdentifiesColumns) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1}),
       ToValueColumn(std::vector<int64_t>{2})});
  SeqScanOperator scan(table, 3);
  ASSERT_EQ(scan.layout().size(), 2u);
  EXPECT_EQ(scan.layout()[0], (ColumnRef{3, 0}));
  EXPECT_EQ(scan.layout()[1], (ColumnRef{3, 1}));
}

TEST(SeqScanTest, RescanAfterClose) {
  Table table = MakeTable("k", {1, 2});
  SeqScanOperator scan(table, 0);
  EXPECT_EQ(Drain(scan).size(), 2u);
  EXPECT_EQ(Drain(scan).size(), 2u);  // Open resets the cursor.
}

// ---------------------------------------------------------------- Filter

TEST(FilterTest, ConstPredicate) {
  Table table = MakeTable("k", {1, 5, 3, 8, 5});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGe, V(5))});
  EXPECT_EQ(Drain(filter).size(), 3u);
}

TEST(FilterTest, ConjunctionOfPredicates) {
  Table table = MakeTable("k", {1, 2, 3, 4, 5, 6, 7, 8});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt, V(2)),
       Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(6))});
  EXPECT_EQ(Drain(filter).size(), 3u);  // 3, 4, 5.
}

TEST(FilterTest, ColColPredicate) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3}),
       ToValueColumn(std::vector<int64_t>{1, 5, 3})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                              ColumnRef{0, 1})});
  EXPECT_EQ(Drain(filter).size(), 2u);  // Rows (1,1) and (3,3).
}

// ---------------------------------------------------------------- Project

TEST(ProjectTest, SelectsAndReordersColumns) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 20})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  ProjectOperator project(std::move(scan),
                          {ColumnRef{0, 1}, ColumnRef{0, 0}});
  const std::vector<Row> rows = Drain(project);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[0][1].AsInt64(), 1);
}

// ---------------------------------------------------------------- CountAgg

TEST(CountAggTest, CountsChildRows) {
  Table table = MakeTable("k", {1, 2, 3, 4});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  CountAggOperator agg(std::move(scan));
  const std::vector<Row> rows = Drain(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 4);
}

TEST(GroupCountTest, CountsPerGroup) {
  Table table = Table::FromColumns(
      Schema({{"g", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 1, 1, 3, 2})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  std::vector<Row> rows = Drain(group);
  ASSERT_EQ(rows.size(), 3u);
  int64_t total = 0;
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 2u);
    const int64_t key = row[0].AsInt64();
    const int64_t count = row[1].AsInt64();
    total += count;
    if (key == 1) EXPECT_EQ(count, 3);
    if (key == 2) EXPECT_EQ(count, 2);
    if (key == 3) EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(total, 6);
}

TEST(GroupCountTest, MultiColumnKeys) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2, 1}),
       ToValueColumn(std::vector<int64_t>{7, 8, 7, 7})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan),
                           {ColumnRef{0, 0}, ColumnRef{0, 1}});
  EXPECT_EQ(Drain(group).size(), 3u);  // (1,7)x2, (1,8), (2,7).
}

TEST(GroupCountTest, EmptyInputYieldsNoGroups) {
  Table table = MakeTable("g", {});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  EXPECT_TRUE(Drain(group).empty());
}

TEST(GroupCountTest, RescanRecomputes) {
  Table table = MakeTable("g", {5, 5, 6});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  EXPECT_EQ(Drain(group).size(), 2u);
  EXPECT_EQ(Drain(group).size(), 2u);
}

TEST(CountAggTest, EmptyInputCountsZero) {
  Table table = MakeTable("k", {});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  CountAggOperator agg(std::move(scan));
  const std::vector<Row> rows = Drain(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
}

// ---------------------------------------------------------------- Joins

// Brute-force equi-join size for single-column tables.
int64_t BruteForceJoinSize(const std::vector<int64_t>& a,
                           const std::vector<int64_t>& b) {
  int64_t matches = 0;
  for (int64_t x : a) {
    for (int64_t y : b) {
      if (x == y) ++matches;
    }
  }
  return matches;
}

class JoinOperatorTest : public ::testing::TestWithParam<int> {
 protected:
  // Builds the join operator variant under test over two base tables.
  std::unique_ptr<Operator> MakeJoin(const Table& left, const Table& right,
                                     std::vector<Predicate> predicates) {
    auto l = std::make_unique<SeqScanOperator>(left, 0);
    auto r = std::make_unique<SeqScanOperator>(right, 1);
    switch (GetParam()) {
      case 0:
        return std::make_unique<NestedLoopJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      case 1:
        return std::make_unique<HashJoinOperator>(std::move(l), std::move(r),
                                                  std::move(predicates));
      case 2:
        return std::make_unique<SortMergeJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      case 3:
        return std::make_unique<IndexNestedLoopJoinOperator>(
            std::move(l), right, 1, std::move(predicates),
            std::vector<Predicate>{});
      case 4:
        return std::make_unique<BlockNestedLoopJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      default:
        JOINEST_CHECK(false);
        return nullptr;
    }
  }
};

std::string JoinMethodParamName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"NestedLoop", "Hash", "SortMerge",
                                       "IndexNL", "BlockNestedLoop"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllMethods, JoinOperatorTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         JoinMethodParamName);

TEST_P(JoinOperatorTest, MatchesBruteForce) {
  Rng rng(42 + GetParam());
  const std::vector<int64_t> a = MakeUniformColumn(200, 30, rng);
  const std::vector<int64_t> b = MakeUniformColumn(150, 40, rng);
  Table left = MakeTable("a", a);
  Table right = MakeTable("b", b);
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(static_cast<int64_t>(Drain(*join).size()),
            BruteForceJoinSize(a, b));
}

// One outer row matches more inner rows than fit in a RowBatch, so every
// method has to stop mid-match and resume on the next refill.
TEST_P(JoinOperatorTest, MatchRunSpansBatches) {
  std::vector<int64_t> b;
  for (int64_t i = 0; i < 3 * kDefaultBatchRows; ++i) {
    b.push_back(i % 3 == 0 ? 6 : 5);  // 5 matches 2048 rows, 6 matches 1024.
  }
  const std::vector<int64_t> a = {6, 5, 9};
  Table left = MakeTable("a", a);
  Table right = MakeTable("b", b);
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  const std::vector<Row> rows = Drain(*join);
  EXPECT_EQ(static_cast<int64_t>(rows.size()), BruteForceJoinSize(a, b));
  for (const Row& row : rows) EXPECT_EQ(row[0], row[1]);
  EXPECT_GT(join->batches(), 2);
  EXPECT_EQ(join->rows_produced(), static_cast<int64_t>(rows.size()));
}

TEST_P(JoinOperatorTest, NoMatches) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_TRUE(Drain(*join).empty());
}

TEST_P(JoinOperatorTest, DuplicateKeysCrossProduct) {
  Table left = MakeTable("a", {7, 7, 7});
  Table right = MakeTable("b", {7, 7});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST_P(JoinOperatorTest, EmptyInputs) {
  Table left = MakeTable("a", {});
  Table right = MakeTable("b", {1, 2});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_TRUE(Drain(*join).empty());
}

TEST_P(JoinOperatorTest, OutputLayoutConcatenatesInputs) {
  Table left = MakeTable("a", {1});
  Table right = MakeTable("b", {1});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  ASSERT_EQ(join->layout().size(), 2u);
  EXPECT_EQ(join->layout()[0], (ColumnRef{0, 0}));
  EXPECT_EQ(join->layout()[1], (ColumnRef{1, 0}));
}

TEST_P(JoinOperatorTest, MultiKeyJoin) {
  Table left = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 20, 10})});
  Table right = Table::FromColumns(
      Schema({{"c", TypeKind::kInt64}, {"d", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 30, 10})});
  auto l = std::make_unique<SeqScanOperator>(left, 0);
  auto r = std::make_unique<SeqScanOperator>(right, 1);
  std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 1})};
  auto join = MakeJoin(left, right, predicates);
  // Matches: (1,10)-(1,10) and (2,10)-(2,10).
  EXPECT_EQ(Drain(*join).size(), 2u);
}

TEST(NestedLoopJoinTest, CartesianProductWithNoKeys) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = std::make_unique<NestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1), std::vector<Predicate>{});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST(BlockNestedLoopJoinTest, CartesianProductWithNoKeys) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = std::make_unique<BlockNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1), std::vector<Predicate>{});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST(BlockNestedLoopJoinTest, InnerScannedOnce) {
  // BNL materialises the inner: the inner scan must produce its rows
  // exactly once no matter how many outer rows there are.
  Table left = MakeTable("a", {7, 7, 7, 7});
  Table right = MakeTable("b", {7, 8});
  auto inner_scan = std::make_unique<SeqScanOperator>(right, 1);
  SeqScanOperator* inner_ptr = inner_scan.get();
  auto join = std::make_unique<BlockNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), std::move(inner_scan),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 4u);
  EXPECT_EQ(inner_ptr->rows_produced(), 2);  // Once, not 4 × 2.
}

TEST(NestedLoopJoinTest, InnerRescannedPerOuterRow) {
  // The tuple variant re-produces the inner for every outer row.
  Table left = MakeTable("a", {7, 7, 7, 7});
  Table right = MakeTable("b", {7, 8});
  auto inner_scan = std::make_unique<SeqScanOperator>(right, 1);
  SeqScanOperator* inner_ptr = inner_scan.get();
  auto join = std::make_unique<NestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), std::move(inner_scan),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 4u);
  EXPECT_EQ(inner_ptr->rows_produced(), 8);  // 4 outer rows × 2.
}

TEST(IndexNLJoinTest, InnerPredicateApplied) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {1, 2, 3});
  auto join = std::make_unique<IndexNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), right, 1,
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})},
      std::vector<Predicate>{
          Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kLt, V(3))});
  EXPECT_EQ(Drain(*join).size(), 2u);  // b=3 filtered out post-probe.
}

TEST(JoinOrientationTest, SwappedPredicateResolves) {
  // Predicate written as right-side = left-side still resolves.
  Table left = MakeTable("a", {1, 2});
  Table right = MakeTable("b", {2, 3});
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{1, 0}, ColumnRef{0, 0})});
  EXPECT_EQ(Drain(*join).size(), 1u);
}

// ---------------------------------------------------------------- Plans

TEST(PlanTest, CloneIsDeep) {
  auto scan = MakeScanNode(0, {});
  auto join = MakeJoinNode(JoinMethod::kHash, std::move(scan),
                           MakeScanNode(1, {}), {});
  join->estimated_rows = 42;
  auto clone = join->Clone();
  clone->estimated_rows = 7;
  clone->left->table_index = 9;
  EXPECT_DOUBLE_EQ(join->estimated_rows, 42);
  EXPECT_EQ(join->left->table_index, 0);
}

TEST(PlanTest, LeafOrderAndIntermediates) {
  auto plan = MakeJoinNode(
      JoinMethod::kHash,
      MakeJoinNode(JoinMethod::kHash, MakeScanNode(2, {}), MakeScanNode(0, {}),
                   {}),
      MakeScanNode(1, {}), {});
  plan->left->estimated_rows = 5;
  plan->estimated_rows = 3;
  EXPECT_EQ(PlanLeafOrder(*plan), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(PlanIntermediateEstimates(*plan), (std::vector<double>{5, 3}));
}

// ---------------------------------------------------------------- Execute

class ExecuteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    Table users = Table::FromColumns(
        Schema({{"uid", TypeKind::kInt64}}),
        {ToValueColumn(MakeSequentialColumn(50))});
    Table orders = Table::FromColumns(
        Schema({{"ouid", TypeKind::kInt64}}),
        {ToValueColumn(MakeUniformColumn(300, 50, rng))});
    JOINEST_CHECK(catalog_.AddTable("users", std::move(users)).ok());
    JOINEST_CHECK(catalog_.AddTable("orders", std::move(orders)).ok());
  }
  Catalog catalog_;
};

TEST_F(ExecuteTest, CountStarPlan) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto plan = MakeJoinNode(JoinMethod::kHash, MakeScanNode(0, {}),
                           MakeScanNode(1, {}), spec.predicates);
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, 300);  // Every order matches exactly one user.
  EXPECT_EQ(result->output_rows, 1);
  EXPECT_GT(result->operators.size(), 0u);
}

TEST_F(ExecuteTest, ProjectionPlanReturnsRows) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.count_star = false;
  spec.select = {ColumnRef{0, 0}};
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto plan = MakeJoinNode(JoinMethod::kSortMerge, MakeScanNode(0, {}),
                           MakeScanNode(1, {}), spec.predicates);
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output_rows, 300);
}

TEST_F(ExecuteTest, FilterPushdownInPlan) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(10)));
  auto plan = MakeJoinNode(
      JoinMethod::kHash,
      MakeScanNode(0, {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                             V(10))}),
      MakeScanNode(1, {}), {spec.predicates[0]});
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  auto truth = TrueResultSize(catalog_, spec);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(ExecuteTest, IndexNLRequiresScanInner) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto inner_join = MakeJoinNode(JoinMethod::kHash, MakeScanNode(0, {}),
                                 MakeScanNode(1, {}), spec.predicates);
  auto bad = MakeJoinNode(JoinMethod::kIndexNestedLoop, MakeScanNode(0, {}),
                          std::move(inner_join), spec.predicates);
  EXPECT_FALSE(ExecutePlan(catalog_, spec, *bad).ok());
}

TEST_F(ExecuteTest, TrueResultSizeMatchesBruteForce) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kGe, V(25)));
  auto truth = TrueResultSize(catalog_, spec);
  ASSERT_TRUE(truth.ok());
  // Brute force.
  const Table& users = catalog_.table(0);
  const Table& orders = catalog_.table(1);
  int64_t expected = 0;
  for (int64_t u = 0; u < users.num_rows(); ++u) {
    for (int64_t o = 0; o < orders.num_rows(); ++o) {
      if (users.at(u, 0) == orders.at(o, 0) &&
          orders.at(o, 0).AsInt64() >= 25) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(*truth, expected);
}

TEST_F(ExecuteTest, TruePrefixSizesMatchIncrementalTruth) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto sizes = TruePrefixSizes(catalog_, spec, {0, 1});
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  ASSERT_EQ(sizes->size(), 1u);
  EXPECT_EQ((*sizes)[0], *TrueResultSize(catalog_, spec));
  // Reversed order: same final truth.
  auto reversed = TruePrefixSizes(catalog_, spec, {1, 0});
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ((*reversed)[0], (*sizes)[0]);
}

TEST_F(ExecuteTest, TruePrefixSizesRejectsBadOrder) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  EXPECT_FALSE(TruePrefixSizes(catalog_, spec, {0}).ok());
  EXPECT_FALSE(TruePrefixSizes(catalog_, spec, {0, 0}).ok());
  EXPECT_FALSE(TruePrefixSizes(catalog_, spec, {0, 2}).ok());
}

TEST_F(ExecuteTest, AllJoinMethodsAgree) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  int64_t reference = -1;
  for (JoinMethod method :
       {JoinMethod::kNestedLoop, JoinMethod::kBlockNestedLoop,
        JoinMethod::kHash, JoinMethod::kSortMerge,
        JoinMethod::kIndexNestedLoop}) {
    auto plan = MakeJoinNode(method, MakeScanNode(0, {}), MakeScanNode(1, {}),
                             spec.predicates);
    auto result = ExecutePlan(catalog_, spec, *plan);
    ASSERT_TRUE(result.ok()) << result.status();
    if (reference < 0) {
      reference = result->count;
    } else {
      EXPECT_EQ(result->count, reference) << JoinMethodName(method);
    }
  }
}

// ---------------------------------------------------------------- RowBatch

TEST(RowBatchTest, AppendAndClear) {
  RowBatch batch(4);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4);
  batch.AppendSlot() = {V(1)};
  EXPECT_EQ(batch.size(), 1);
  EXPECT_EQ(batch.row(0)[0].AsInt64(), 1);
  batch.AppendSlot() = {V(2)};
  batch.AppendSlot() = {V(3)};
  batch.AppendSlot() = {V(4)};
  EXPECT_TRUE(batch.full());
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4);
}

TEST(RowBatchTest, KeepCompactsSelectedRows) {
  RowBatch batch(8);
  for (int64_t i = 0; i < 6; ++i) batch.AppendSlot() = {V(i)};
  batch.Keep({0, 1, 0, 1, 1, 0});
  ASSERT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.row(0)[0].AsInt64(), 1);
  EXPECT_EQ(batch.row(1)[0].AsInt64(), 3);
  EXPECT_EQ(batch.row(2)[0].AsInt64(), 4);
}

// ----------------------------------------------------------- JoinHashTable

std::vector<Row> SingleColumnRows(const std::vector<int64_t>& keys) {
  std::vector<Row> rows;
  for (int64_t k : keys) rows.push_back({V(k)});
  return rows;
}

TEST(JoinHashTableTest, FastPathGroupsDuplicates) {
  JoinHashTable table(SingleColumnRows({5, 2, 5, 9, 5, 2}), {0});
  EXPECT_TRUE(table.fast_path());
  EXPECT_EQ(table.num_keys(), 3u);
  JoinHashTable::Scratch scratch;
  Row probe = {V(int64_t{5})};
  EXPECT_EQ(table.Probe(probe, {0}, scratch).size, 3u);
  probe[0] = V(int64_t{9});
  EXPECT_EQ(table.Probe(probe, {0}, scratch).size, 1u);
  probe[0] = V(int64_t{4});
  EXPECT_TRUE(table.Probe(probe, {0}, scratch).empty());
}

TEST(JoinHashTableTest, SpanCoversExactlyTheMatchingRows) {
  JoinHashTable table(SingleColumnRows({1, 2, 1, 3, 1}), {0});
  JoinHashTable::Scratch scratch;
  const Row probe = {V(int64_t{1})};
  const JoinHashTable::Span span = table.Probe(probe, {0}, scratch);
  ASSERT_EQ(span.size, 3u);
  for (uint32_t r : span) {
    EXPECT_EQ(table.row(r)[0].AsInt64(), 1);
  }
}

TEST(JoinHashTableTest, FastPathCanonicalisesDoubleProbes) {
  JoinHashTable table(SingleColumnRows({3, 4}), {0});
  ASSERT_TRUE(table.fast_path());
  JoinHashTable::Scratch scratch;
  EXPECT_EQ(table.Probe({Value(3.0)}, {0}, scratch).size, 1u);
  EXPECT_TRUE(table.Probe({Value(3.5)}, {0}, scratch).empty());
  EXPECT_TRUE(table.Probe({Value(1e19)}, {0}, scratch).empty());
}

TEST(JoinHashTableTest, GenericPathMultiColumnKeys) {
  std::vector<Row> rows = {{V(1), V(10)}, {V(1), V(20)}, {V(2), V(10)},
                           {V(1), V(10)}};
  JoinHashTable table(std::move(rows), {0, 1});
  EXPECT_FALSE(table.fast_path());
  EXPECT_EQ(table.num_keys(), 3u);
  JoinHashTable::Scratch scratch;
  EXPECT_EQ(table.Probe({V(1), V(10)}, {0, 1}, scratch).size, 2u);
  EXPECT_EQ(table.Probe({V(2), V(10)}, {0, 1}, scratch).size, 1u);
  EXPECT_TRUE(table.Probe({V(2), V(20)}, {0, 1}, scratch).empty());
}

TEST(JoinHashTableTest, GenericPathStringKeys) {
  std::vector<Row> rows = {{Value(std::string("x"))},
                           {Value(std::string("y"))},
                           {Value(std::string("x"))}};
  JoinHashTable table(std::move(rows), {0});
  EXPECT_FALSE(table.fast_path());
  JoinHashTable::Scratch scratch;
  EXPECT_EQ(table.Probe({Value(std::string("x"))}, {0}, scratch).size, 2u);
  EXPECT_TRUE(table.Probe({Value(std::string("z"))}, {0}, scratch).empty());
}

TEST(JoinHashTableTest, EmptyKeyListMatchesEverything) {
  JoinHashTable table(SingleColumnRows({7, 8, 9}), {});
  JoinHashTable::Scratch scratch;
  const Row probe = {V(int64_t{42})};
  EXPECT_EQ(table.Probe(probe, {}, scratch).size, 3u);
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  JoinHashTable table(std::vector<Row>{}, {0});
  JoinHashTable::Scratch scratch;
  const Row probe = {V(int64_t{1})};
  EXPECT_TRUE(table.Probe(probe, {0}, scratch).empty());
}

// -------------------------------------------------------------- Batch path

TEST(BatchScanTest, NextBatchEmitsAllRows) {
  Rng rng(5);
  Table table = MakeTable("k", MakeUniformColumn(2500, 100, rng));
  SeqScanOperator scan(table, 0);
  scan.Open();
  RowBatch batch;
  int64_t rows = 0;
  int batches = 0;
  while (scan.NextBatch(batch)) {
    rows += batch.size();
    ++batches;
  }
  scan.Close();
  EXPECT_EQ(rows, 2500);
  EXPECT_GE(batches, 3);  // 2500 rows at 1024/batch.
  EXPECT_EQ(scan.rows_produced(), 2500);
}

TEST(BatchFilterTest, SkipsFullyFilteredBatches) {
  // 3000 rows, only the last 10 pass: the batch loop must not report an
  // empty batch as end-of-stream.
  std::vector<int64_t> values(3000, 0);
  for (int i = 0; i < 10; ++i) values[2990 + i] = 1;
  Table table = MakeTable("k", values);
  FilterOperator filter(
      std::make_unique<SeqScanOperator>(table, 0),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(1))});
  filter.Open();
  RowBatch batch;
  int64_t rows = 0;
  while (filter.NextBatch(batch)) rows += batch.size();
  filter.Close();
  EXPECT_EQ(rows, 10);
}

TEST(OperatorTimingTest, ExecutePlanReportsPerOperatorSeconds) {
  Rng rng(9);
  Table table = MakeTable("k", MakeUniformColumn(5000, 50, rng));
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("T", std::move(table)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 1);
  auto plan = MakeScanNode(0, {});
  auto result = ExecutePlan(catalog, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->operators.empty());
  for (const OperatorStats& stats : result->operators) {
    EXPECT_GE(stats.seconds, 0.0) << stats.name;
    // Inclusive wall-clock: no operator exceeds the whole query.
    EXPECT_LE(stats.seconds, result->seconds + 1e-9) << stats.name;
  }
}

}  // namespace
}  // namespace joinest
