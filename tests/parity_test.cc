// Cross-method and cross-path parity: every join method, with kernels on
// and off, and the morsel-parallel counting pipeline must reproduce the
// brute-force reference (tests/reference_join.h) on the same query. Counts
// are the repo's ground truth (TrueResultSize feeds every estimator
// comparison), so parity here is load-bearing — a divergence anywhere
// silently corrupts the paper reproduction.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "executor/compile.h"
#include "executor/execute.h"
#include "executor/parallel.h"
#include "executor/plan.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "tests/reference_join.h"
#include "tests/test_util.h"
#include "workloads/generator.h"

namespace joinest {
namespace {

// Overrides the method on every join that carries at least one key; the
// rare cartesian step (empty key list) stays nested loops, which is the
// only method defined for it.
void SetJoinMethod(PlanNode* node, JoinMethod method) {
  if (node == nullptr || node->kind != PlanNode::Kind::kJoin) return;
  if (!node->join_predicates.empty()) node->method = method;
  SetJoinMethod(node->left.get(), method);
  SetJoinMethod(node->right.get(), method);
}

int64_t CountWithMethod(const Catalog& catalog, const QuerySpec& spec,
                        JoinMethod method) {
  std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  SetJoinMethod(plan.get(), method);
  auto result = ExecutePlan(catalog, spec, *plan);
  JOINEST_CHECK(result.ok()) << result.status();
  return result->count;
}

// Drains a compiled plan batch by batch into the reference's row count and
// canonical checksum.
ReferenceResult DrainCompiled(const Catalog& catalog, const QuerySpec& spec,
                              const PlanNode& plan, bool specialize) {
  CompileOptions options;
  options.specialize_kernels = specialize;
  auto root = CompilePlan(catalog, spec, plan, nullptr, nullptr, nullptr,
                          options);
  JOINEST_CHECK(root.ok()) << root.status();
  Operator& op = **root;
  const std::vector<int> order = CanonicalOrder(op.layout());
  ReferenceResult out;
  op.Open();
  RowBatch batch;
  while (op.NextBatch(batch)) {
    out.rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      out.checksum += CanonicalRowHash(batch.row(i), order);
    }
  }
  op.Close();
  return out;
}

int64_t ParallelCountWithThreads(const Catalog& catalog,
                                 const QuerySpec& spec, const char* threads) {
  JOINEST_CHECK_EQ(setenv("JOINEST_THREADS", threads, /*overwrite=*/1), 0);
  auto count = TrueResultSize(catalog, spec);
  unsetenv("JOINEST_THREADS");
  JOINEST_CHECK(count.ok()) << count.status();
  return *count;
}

struct ParityCase {
  WorkloadOptions::Shape shape;
  int num_tables;
  bool single_class;
  bool local_predicate;
  uint64_t seed;
};

std::vector<ParityCase> ParityCases() {
  using Shape = WorkloadOptions::Shape;
  std::vector<ParityCase> cases;
  for (uint64_t seed : {7u, 21u}) {
    cases.push_back({Shape::kChain, 4, true, false, seed});
    cases.push_back({Shape::kChain, 3, false, true, seed});
    cases.push_back({Shape::kStar, 3, true, true, seed});
    cases.push_back({Shape::kClique, 3, true, false, seed});
    cases.push_back({Shape::kCycle, 3, true, false, seed});
  }
  return cases;
}

GeneratedWorkload MakeWorkload(const ParityCase& c) {
  WorkloadOptions options;
  options.shape = c.shape;
  options.num_tables = c.num_tables;
  options.single_class = c.single_class;
  options.add_local_predicate = c.local_predicate;
  options.seed = c.seed;
  // Small enough that nested loops and the brute-force reference stay
  // fast, large enough that plans span several batches.
  options.min_rows = 80;
  options.max_rows = 200;
  options.min_distinct = 10;
  options.max_distinct = 50;
  auto workload = GenerateWorkload(options);
  JOINEST_CHECK(workload.ok()) << workload.status();
  return std::move(*workload);
}

// Property: on seeded generator workloads across every query shape, all
// five join methods, with kernels on and off, produce the reference's rows
// (count and checksum), and the ground-truth count agrees.
TEST(JoinMethodParityTest, AllMethodsMatchBruteForceReference) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    const ReferenceResult expected = BruteForceJoin(w.catalog, w.spec);
    EXPECT_GT(expected.rows, 0) << "degenerate workload, seed " << c.seed;
    auto truth = TrueResultSize(w.catalog, w.spec);
    ASSERT_TRUE(truth.ok()) << truth.status();
    EXPECT_EQ(*truth, expected.rows) << "seed " << c.seed;
    for (JoinMethod method :
         {JoinMethod::kNestedLoop, JoinMethod::kBlockNestedLoop,
          JoinMethod::kHash, JoinMethod::kSortMerge,
          JoinMethod::kIndexNestedLoop}) {
      std::unique_ptr<PlanNode> plan = CanonicalSafePlan(w.spec);
      SetJoinMethod(plan.get(), method);
      for (bool specialize : {false, true}) {
        const ReferenceResult got =
            DrainCompiled(w.catalog, w.spec, *plan, specialize);
        EXPECT_EQ(got.rows, expected.rows)
            << JoinMethodName(method) << " kernels " << specialize
            << ", shape " << static_cast<int>(c.shape) << " seed " << c.seed;
        EXPECT_EQ(got.checksum, expected.checksum)
            << JoinMethodName(method) << " kernels " << specialize
            << ", shape " << static_cast<int>(c.shape) << " seed " << c.seed;
      }
      EXPECT_EQ(CountWithMethod(w.catalog, w.spec, method), expected.rows)
          << JoinMethodName(method) << " via ExecutePlan, seed " << c.seed;
    }
  }
}

// Regression: an unspecified-evaluation-order bug once moved the eligible
// key list out before the method ternary read it, so every canonical join
// compiled as a nested loop. The canonical plan must use hash joins
// whenever a join carries keys.
TEST(CanonicalPlanTest, KeyedJoinsAreHashJoins) {
  const GeneratedWorkload w =
      MakeWorkload({WorkloadOptions::Shape::kChain, 4, true, false, 3});
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(w.spec);
  for (const PlanNode* node = plan.get();
       node != nullptr && node->kind == PlanNode::Kind::kJoin;
       node = node->left.get()) {
    ASSERT_FALSE(node->join_predicates.empty());
    EXPECT_EQ(node->method, JoinMethod::kHash);
  }
}

// The morsel-parallel counting pipeline must match the reference bit for
// bit, whatever the worker count.
TEST(ParallelParityTest, ParallelCountMatchesReferenceAcrossThreadCounts) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    const int64_t expected = BruteForceJoin(w.catalog, w.spec).rows;
    EXPECT_EQ(ParallelCountWithThreads(w.catalog, w.spec, "1"), expected)
        << "1 thread, seed " << c.seed;
    EXPECT_EQ(ParallelCountWithThreads(w.catalog, w.spec, "8"), expected)
        << "8 threads, seed " << c.seed;
  }
}

// --------------------------------------------- Specialized batch kernels
//
// CompilePlan lowers schema-provable filters, scans and hash joins onto
// typed kernels (executor/kernels.h). The generic path stays behind
// CompileOptions{specialize_kernels = false}: both compilations of the same
// plan must reproduce the brute-force reference, row count AND multiset of
// rows.

void ExpectKernelParity(const Catalog& catalog, const QuerySpec& spec,
                        const char* what) {
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  const ReferenceResult expected = BruteForceJoin(catalog, spec);
  for (bool specialize : {false, true}) {
    const ReferenceResult got =
        DrainCompiled(catalog, spec, *plan, specialize);
    EXPECT_EQ(got.rows, expected.rows) << what << ", kernels " << specialize;
    EXPECT_EQ(got.checksum, expected.checksum)
        << what << ", kernels " << specialize;
  }
}

TEST(KernelParityTest, SpecializedMatchesGenericOnGeneratedWorkloads) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    ExpectKernelParity(w.catalog, w.spec, "generated workload");
  }
}

// Mixed-type tables: int64, double and string columns in one plan, so the
// filter lowers onto all three typed kernels plus the int64-vs-double
// widening path, and the join exercises both the all-int64 emit kernel
// (key join on the int side) and the generic emit (string payloads).
class KernelMixedTypeTest : public ::testing::Test {
 protected:
  KernelMixedTypeTest() {
    Table facts = Table::FromColumns(
        Schema({{"k", TypeKind::kInt64},
                {"x", TypeKind::kDouble},
                {"s", TypeKind::kString},
                {"m", TypeKind::kInt64}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7, 8}),
         ToValueColumn(
             std::vector<double>{0.5, 1.5, 2.5, 3.0, 4.5, 5.0, 6.5, 7.0}),
         ToValueColumn(std::vector<std::string>{"a", "b", "a", "c", "b", "a",
                                                "d", "b"}),
         ToValueColumn(std::vector<int64_t>{1, 1, 2, 2, 3, 3, 4, 4})});
    Table dims = Table::FromColumns(
        Schema({{"k", TypeKind::kInt64}, {"t", TypeKind::kString}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 4, 1, 2}),
         ToValueColumn(
             std::vector<std::string>{"p", "q", "r", "s", "t", "u"})});
    JOINEST_CHECK(catalog_.AddTable("F", std::move(facts)).ok());
    JOINEST_CHECK(catalog_.AddTable("G", std::move(dims)).ok());
  }

  QuerySpec SpecWith(std::vector<Predicate> predicates) {
    QuerySpec spec = MakeCountSpec(catalog_, 2);
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    for (Predicate& p : predicates) spec.predicates.push_back(std::move(p));
    return spec;
  }

  Catalog catalog_;
};

TEST_F(KernelMixedTypeTest, AllFilterKernelsAgree) {
  // One predicate per kernel: int64 const, double const, string const,
  // int64 col-col, and the int64-vs-double widening comparison.
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1}))}),
      "int64 const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kLe,
                                      Value(5.0))}),
      "double const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kEq,
                                      Value(std::string("a")))}),
      "string const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kGe,
                                       ColumnRef{0, 3})}),
      "int64 col-col");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "double-vs-int64 widening");
  // An int64 column against a double constant widens the column side.
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                      Value(4.5))}),
      "int64 column vs double const");
}

TEST_F(KernelMixedTypeTest, ConjunctionAcrossKernelsAgrees) {
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1})),
                Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kNe,
                                      Value(std::string("d"))),
                Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "mixed-kernel conjunction");
}

// String payloads force the generic emit path; an int64-only projection of
// the same join takes the all-int64 emit kernel. Both must match their
// generic compilations.
TEST_F(KernelMixedTypeTest, JoinEmitKernelsAgree) {
  ExpectKernelParity(catalog_, SpecWith({}), "string payload join");
}

// The mixed int64-vs-double join key must stay on the generic canonical-key
// probe (the fast probe is only sound when both sides are int64).
TEST(KernelMixedKeyParityTest, MixedKeyJoinStaysCorrect) {
  Catalog catalog;
  Table ints = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000})});
  Table doubles = Table::FromColumns(
      Schema({{"b", TypeKind::kDouble}}),
      {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                         4000000000.0, 0.5})});
  JOINEST_CHECK(catalog.AddTable("I", std::move(ints)).ok());
  JOINEST_CHECK(catalog.AddTable("D", std::move(doubles)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  ExpectKernelParity(catalog, spec, "mixed-type join key");
}

// ------------------------------------------------- Mixed-type join keys
//
// Regression: the seed hashed a double key by casting to int64 (undefined
// behaviour out of range) while equality compared numerically, so an int64
// column joined against a double column could drop or duplicate matches
// depending on the container's hashing. Canonical keys (integral in-range
// doubles collapse to int64) make hash and equality agree.

class MixedTypeKeyTest : public ::testing::Test {
 protected:
  MixedTypeKeyTest() {
    Table ints = Table::FromColumns(
        Schema({{"a", TypeKind::kInt64}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000})});
    Table doubles = Table::FromColumns(
        Schema({{"b", TypeKind::kDouble}}),
        {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                           4000000000.0, 0.5})});
    JOINEST_CHECK(catalog_.AddTable("I", std::move(ints)).ok());
    JOINEST_CHECK(catalog_.AddTable("D", std::move(doubles)).ok());
    spec_ = MakeCountSpec(catalog_, 2);
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  }

  Catalog catalog_;
  QuerySpec spec_;
};

// Matches: 1, 3, 5, -7 and 4000000000 each pair with their double twin.
// 2.5 and 0.5 are fractional, 1e19 exceeds the int64 range — no partner.
TEST_F(MixedTypeKeyTest, HashJoinMatchesNumericEquality) {
  constexpr int64_t kExpected = 5;
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kNestedLoop),
            kExpected);
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kHash), kExpected);
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kSortMerge),
            kExpected);
}

TEST_F(MixedTypeKeyTest, TrueResultSizeMatches) {
  EXPECT_EQ(ParallelCountWithThreads(catalog_, spec_, "1"), 5);
  EXPECT_EQ(ParallelCountWithThreads(catalog_, spec_, "4"), 5);
}

// Same join probed from the double side as the build side: the direction
// must not matter.
TEST_F(MixedTypeKeyTest, DirectionSymmetric) {
  QuerySpec flipped = MakeCountSpec(catalog_, 2);
  flipped.predicates.push_back(
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{0, 0}));
  EXPECT_EQ(CountWithMethod(catalog_, flipped, JoinMethod::kHash), 5);
}

TEST(CanonicalValueTest, IntegralDoubleCollapsesToInt64) {
  EXPECT_EQ(Value(3.0).AsCanonicalInt64(), std::optional<int64_t>(3));
  EXPECT_EQ(Value(int64_t{3}).AsCanonicalInt64(), std::optional<int64_t>(3));
  EXPECT_EQ(Value(2.5).AsCanonicalInt64(), std::nullopt);
  // Out of int64 range: must not be cast (that cast is UB), must not match.
  EXPECT_EQ(Value(1e19).AsCanonicalInt64(), std::nullopt);
  EXPECT_EQ(Value(-1e19).AsCanonicalInt64(), std::nullopt);
  EXPECT_EQ(Value(std::string("3")).AsCanonicalInt64(), std::nullopt);
  // Hash/equality coherence: equal values hash equally across types.
  EXPECT_TRUE(Value(3.0) == Value(int64_t{3}));
  EXPECT_EQ(Value(3.0).Hash(), Value(int64_t{3}).Hash());
}

}  // namespace
}  // namespace joinest
