// Tests for estimator/: table profiles (ELS steps 3-5), join selectivities,
// and the incremental estimation rules M / SS / LS / Representative on the
// paper's own examples.

#include <cctype>
#include <cmath>

#include "common/random.h"
#include "estimator/analyzed_query.h"
#include "estimator/presets.h"
#include "gtest/gtest.h"
#include "stats/distinct.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

// Catalog with the paper's Example 1b statistics:
//   ||R1||=100, ||R2||=1000, ||R3||=1000, d_x=10, d_y=100, d_z=1000.
Catalog Example1Catalog() {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "R1", {{"x", TypeKind::kInt64}}, 100, {10});
  AddStatsOnlyTable(catalog, "R2", {{"y", TypeKind::kInt64}}, 1000, {100});
  AddStatsOnlyTable(catalog, "R3", {{"z", TypeKind::kInt64}}, 1000, {1000});
  return catalog;
}

QuerySpec Example1Spec(const Catalog& catalog) {
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
  return spec;
}

AnalyzedQuery Analyze(const Catalog& catalog, const QuerySpec& spec,
                      AlgorithmPreset preset) {
  auto analyzed = AnalyzedQuery::Create(catalog, spec, PresetOptions(preset));
  JOINEST_CHECK(analyzed.ok()) << analyzed.status();
  return *std::move(analyzed);
}

// ------------------------------------------------------ Join selectivity

TEST(JoinSelectivityTest, Example1bSelectivities) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  // Paper: S_J1 = 0.01, S_J2 = 0.001, S_J3 = 0.001.
  ASSERT_EQ(q.predicates().size(), 3u);  // J1, J2 + derived J3.
  EXPECT_DOUBLE_EQ(q.JoinSelectivity(q.predicates()[0]), 0.01);
  EXPECT_DOUBLE_EQ(q.JoinSelectivity(q.predicates()[1]), 0.001);
  EXPECT_DOUBLE_EQ(q.JoinSelectivity(q.predicates()[2]), 0.001);
}

TEST(JoinSelectivityTest, Equation2PairwiseJoin) {
  // ||R2 ⋈ R3|| = 1000×1000×0.001 = 1000 (paper, Example 1b).
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q.JoinCardinality(uint64_t{1} << 1, 1000, 2), 1000 * 1000 * 0.001);
}

// ------------------------------------------------------ Rules on Example 2/3

TEST(RuleTest, Example2RuleMUnderestimates) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kSM);
  const std::vector<double> sizes = q.EstimateOrder({1, 2, 0});
  EXPECT_DOUBLE_EQ(sizes[0], 1000);  // R2 ⋈ R3.
  EXPECT_DOUBLE_EQ(sizes[1], 1);     // Paper: Rule M gives 1, truth 1000.
}

TEST(RuleTest, Example3RuleSSUnderestimates) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kSSS);
  const std::vector<double> sizes = q.EstimateOrder({1, 2, 0});
  EXPECT_DOUBLE_EQ(sizes[1], 100);  // Paper: Rule SS gives 100.
}

TEST(RuleTest, Example3RuleLSCorrect) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const std::vector<double> sizes = q.EstimateOrder({1, 2, 0});
  EXPECT_DOUBLE_EQ(sizes[1], 1000);  // Paper: Rule LS gives 1000 (correct).
}

TEST(RuleTest, RepresentativeStrawmanBothWrong) {
  // §3.3: rep=0.01 → 10000 (too high); rep=0.001 → 100 (too low).
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery large =
      Analyze(catalog, spec, AlgorithmPreset::kRepresentativeLarge);
  EXPECT_DOUBLE_EQ(large.EstimateOrder({1, 2, 0})[1], 10000);
  AnalyzedQuery small =
      Analyze(catalog, spec, AlgorithmPreset::kRepresentativeSmall);
  EXPECT_DOUBLE_EQ(small.EstimateOrder({1, 2, 0})[1], 100);
}

TEST(RuleTest, Equation3AllOrdersAgreeUnderLS) {
  // Equation 3: ||R1⋈R2⋈R3|| = (100·1000·1000)/(100·1000) = 1000, whatever
  // the join order.
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& order : orders) {
    EXPECT_DOUBLE_EQ(q.EstimateOrder(order).back(), 1000)
        << "order " << order[0] << order[1] << order[2];
  }
}

TEST(RuleTest, RuleMConsistentlyWrongForEveryOrder) {
  // With the closed predicate set, Rule M applies every predicate exactly
  // once whatever the order, so its final estimate is order-independent —
  // and uniformly wrong: ∏rows × ∏sels = 10^8 × 10^-8 = 1 (truth 1000).
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kSM);
  for (const auto& order : std::vector<std::vector<int>>{
           {0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}) {
    EXPECT_DOUBLE_EQ(q.EstimateOrder(order).back(), 1);
  }
}

TEST(RuleTest, RuleSSOrderDependent) {
  // Rule SS's per-class minimum is taken over the *eligible* predicates,
  // which vary with the order — §3.3's inconsistency in action.
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kSSS);
  const double via_r1_first = q.EstimateOrder({0, 1, 2}).back();
  const double via_r1_last = q.EstimateOrder({1, 2, 0}).back();
  EXPECT_DOUBLE_EQ(via_r1_first, 1000);
  EXPECT_DOUBLE_EQ(via_r1_last, 100);
}

TEST(RuleTest, CartesianProductWhenNoPredicates) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 10, {10.0});
  AddStatsOnlyTable(catalog, "B", 20, {20.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q.EstimateFullJoin(), 200);
}

TEST(RuleTest, MultipleEquivalenceClassesMultiply) {
  // Two independent join conditions between A and B: one per class.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 1000, {100.0, 50.0});
  AddStatsOnlyTable(catalog, "B", 2000, {200.0, 25.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 1}));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  // 1000 × 2000 × (1/200) × (1/50).
  EXPECT_DOUBLE_EQ(q.EstimateFullJoin(), 1000.0 * 2000 / 200 / 50);
}

// ------------------------------------------------------ Table profiles

TEST(TableProfileTest, NoLocalPredicatesKeepsRawStats) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const TableProfile& r2 = q.profile(1);
  EXPECT_DOUBLE_EQ(r2.effective_rows, 1000);
  EXPECT_DOUBLE_EQ(r2.join_distinct[0], 100);
}

TEST(TableProfileTest, EqualityPredicateReducesToOneDistinct) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 1000, {100.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(5)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const TableProfile& t = q.profile(0);
  EXPECT_DOUBLE_EQ(t.effective_rows, 10);   // 1000 / 100.
  EXPECT_DOUBLE_EQ(t.join_distinct[0], 1);  // Pinned column.
}

TEST(TableProfileTest, UrnModelAppliedToUnrelatedColumn) {
  // §5: selection on y thins the distinct count of unrelated x via the urn
  // model, not linearly.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 100000, {10000.0, 2.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  // Predicate on column 1 halves the table.
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kEq, V(0)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const TableProfile& t = q.profile(0);
  EXPECT_DOUBLE_EQ(t.effective_rows, 50000);
  EXPECT_EQ(std::lround(t.join_distinct[0]), 9933);  // Paper's number.
}

TEST(TableProfileTest, Section6SingleTableJEquivalence) {
  // ||R2||=1000, d_y=10, d_w=50; x=y and x=w imply y=w:
  // ||R2||' = 20, effective join cardinality 9.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "R1", 100, {100.0});
  AddStatsOnlyTable(catalog, "R2", 1000, {10.0, 50.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 1}));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const TableProfile& r2 = q.profile(1);
  EXPECT_DOUBLE_EQ(r2.effective_rows, 20);
  EXPECT_DOUBLE_EQ(r2.join_distinct[0], 9);
  EXPECT_DOUBLE_EQ(r2.join_distinct[1], 9);  // Both group members share d'.
}

TEST(TableProfileTest, Section6GeneralisesToThreeColumns) {
  // Three j-equivalent columns d = (4, 10, 20): ||R||' = ⌈n/(10·20)⌉,
  // d' = ⌈4(1-(1-1/4)^||R||')⌉.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 100, {100.0});
  AddStatsOnlyTable(catalog, "T", 10000, {4.0, 10.0, 20.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  for (int c = 0; c < 3; ++c) {
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, c}));
  }
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const TableProfile& t = q.profile(1);
  EXPECT_DOUBLE_EQ(t.effective_rows, 50);  // ⌈10000/200⌉.
  const double expected_d = std::ceil(4 * (1 - std::pow(0.75, 50)));
  EXPECT_DOUBLE_EQ(t.join_distinct[0], expected_d);
}

TEST(TableProfileTest, StandardModeIgnoresLocalEffectOnDistinct) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 1000, {100.0});
  AddStatsOnlyTable(catalog, "U", 1000, {100.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(5)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kSM);
  const TableProfile& t = q.profile(0);
  EXPECT_DOUBLE_EQ(t.effective_rows, 10);     // Rows still reduced...
  EXPECT_DOUBLE_EQ(t.join_distinct[0], 100);  // ...but join d stays raw.
}

TEST(TableProfileTest, ContradictionYieldsEmptyTable) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 1000, {100.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(1)));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(2)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_TRUE(q.profile(0).is_empty);
  EXPECT_DOUBLE_EQ(q.profile(0).effective_rows, 0);
}

TEST(TableProfileTest, RawStatisticsRetained) {
  // Paper §5: unreduced cardinalities are kept for access costing.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 1000, {100.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(5)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q.profile(0).raw_rows, 1000);
  EXPECT_DOUBLE_EQ(q.profile(0).raw_distinct[0], 100);
}

// ------------------------------------------------------ §8 estimates

class Section8Test : public ::testing::Test {
 protected:
  void SetUp() override {
    AddStatsOnlyTable(catalog_, "S", {{"s", TypeKind::kInt64}}, 1000, {1000});
    AddStatsOnlyTable(catalog_, "M", {{"m", TypeKind::kInt64}}, 10000,
                      {10000});
    AddStatsOnlyTable(catalog_, "B", {{"b", TypeKind::kInt64}}, 50000,
                      {50000});
    AddStatsOnlyTable(catalog_, "G", {{"g", TypeKind::kInt64}}, 100000,
                      {100000});
    // Supply min/max so the range selectivity of `s < 100` is exact.
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

  // Sets min/max for all four join columns (stats-only tables omit them).
  void SetRanges() {
    // AddStatsOnlyTable leaves min/max unset; rebuild with ranges.
  }

  Catalog catalog_;
  QuerySpec spec_;
};

TEST_F(Section8Test, ELSEstimatesAreExactlyOneHundred) {
  // With d = ||R|| and domains {0..d-1}, s<100 propagates to every join
  // column and every composite is estimated at 100 — the paper's correct
  // answer. Stats-only tables have no min/max, so the default range
  // selectivity applies; use materialised stats instead via explicit
  // min/max.
  Catalog catalog;
  auto add = [&](const std::string& name, double n) {
    TableStats stats;
    stats.row_count = n;
    ColumnStats col;
    col.distinct_count = n;
    col.min = 0;
    col.max = n - 1;
    stats.columns.push_back(col);
    const char column_name = static_cast<char>(std::tolower(
        static_cast<unsigned char>(name[0])));
    Table table{Schema({{std::string(1, column_name), TypeKind::kInt64}})};
    JOINEST_CHECK(
        catalog.AddTableWithStats(name, std::move(table), std::move(stats))
            .ok());
  };
  add("S", 1000);
  add("M", 10000);
  add("B", 50000);
  add("G", 100000);
  QuerySpec spec = MakeCountSpec(catalog, 4);
  spec.predicates = spec_.predicates;
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  for (const auto& order : std::vector<std::vector<int>>{
           {0, 1, 2, 3}, {2, 3, 1, 0}, {3, 2, 1, 0}}) {
    const std::vector<double> sizes = q.EstimateOrder(order);
    for (double s : sizes) EXPECT_DOUBLE_EQ(s, 100) << "within some order";
  }
}

TEST_F(Section8Test, ClosurePropagatesLocalToAllTables) {
  AnalyzedQuery q = Analyze(catalog_, spec_, AlgorithmPreset::kELS);
  int constants = 0;
  for (const Predicate& p : q.predicates()) {
    if (p.kind == Predicate::Kind::kLocalConst) ++constants;
  }
  EXPECT_EQ(constants, 4);
}

TEST_F(Section8Test, WithoutPtcOnlyOriginalPredicates) {
  AnalyzedQuery q = Analyze(catalog_, spec_, AlgorithmPreset::kSMNoPtc);
  EXPECT_EQ(q.predicates().size(), 4u);
  // M, B, G keep full cardinality.
  EXPECT_DOUBLE_EQ(q.profile(1).effective_rows, 10000);
  EXPECT_DOUBLE_EQ(q.profile(3).effective_rows, 100000);
}

// ------------------------------------------------------ Extensions

TEST(ExtensionTest, LinearDistinctAblationDiffersFromUrn) {
  // §5's numerical example as a profile: d=10000, n=100000, filter to half.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 100000, {10000.0, 2.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kEq, V(0)));

  EstimationOptions urn = PresetOptions(AlgorithmPreset::kELS);
  auto urn_q = AnalyzedQuery::Create(catalog, spec, urn);
  ASSERT_TRUE(urn_q.ok());
  EXPECT_EQ(std::lround(urn_q->profile(0).join_distinct[0]), 9933);

  EstimationOptions linear = urn;
  linear.profile.linear_distinct = true;
  auto linear_q = AnalyzedQuery::Create(catalog, spec, linear);
  ASSERT_TRUE(linear_q.ok());
  EXPECT_EQ(std::lround(linear_q->profile(0).join_distinct[0]), 5000);
}

TEST(ExtensionTest, HistogramJoinSelectivityUsedWhenAvailable) {
  // Skewed join columns: the histogram-based S_J must exceed 1/max(d).
  Rng rng(5);
  Catalog catalog;
  AnalyzeOptions analyze;
  analyze.histogram_kind = AnalyzeOptions::HistogramKind::kEndBiased;
  Table t1 = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(10000, 200, 1.2, rng))});
  Table t2 = Table::FromColumns(
      Schema({{"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(5000, 200, 1.2, rng))});
  ASSERT_TRUE(catalog.AddTable("T1", std::move(t1), analyze).ok());
  ASSERT_TRUE(catalog.AddTable("T2", std::move(t2), analyze).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));

  EstimationOptions plain = PresetOptions(AlgorithmPreset::kELS);
  EstimationOptions with_hist = plain;
  with_hist.histogram_join_selectivity = true;
  auto plain_q = AnalyzedQuery::Create(catalog, spec, plain);
  auto hist_q = AnalyzedQuery::Create(catalog, spec, with_hist);
  ASSERT_TRUE(plain_q.ok() && hist_q.ok());
  EXPECT_GT(hist_q->EstimateFullJoin(), plain_q->EstimateFullJoin() * 2);
}

TEST(ExtensionTest, HistogramJoinFallsBackWithoutHistograms) {
  Catalog catalog = Example1Catalog();  // Stats-only: no histograms.
  QuerySpec spec = Example1Spec(catalog);
  EstimationOptions options = PresetOptions(AlgorithmPreset::kELS);
  options.histogram_join_selectivity = true;
  auto q = AnalyzedQuery::Create(catalog, spec, options);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->EstimateFullJoin(), 1000);  // Classic path.
}

// ------------------------------------------------------ Traces

TEST(TraceTest, RecordsEligibleAndChoices) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const auto trace = q.TraceOrder({1, 2, 0});
  ASSERT_EQ(trace.size(), 2u);
  // Step 1: R2 ⋈ R3 via J2.
  EXPECT_EQ(trace[0].next_table, 2);
  EXPECT_EQ(trace[0].eligible.size(), 1u);
  EXPECT_FALSE(trace[0].cartesian);
  EXPECT_DOUBLE_EQ(trace[0].output_cardinality, 1000);
  // Step 2: join R1 — two eligible predicates, one class, LS takes 0.01.
  EXPECT_EQ(trace[1].next_table, 0);
  EXPECT_EQ(trace[1].eligible.size(), 2u);
  ASSERT_EQ(trace[1].classes.size(), 1u);
  EXPECT_DOUBLE_EQ(trace[1].classes[0].chosen, 0.01);
  EXPECT_DOUBLE_EQ(trace[1].output_cardinality, 1000);
}

TEST(TraceTest, RuleChoicesDifferPerPreset) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  const auto trace_ss =
      Analyze(catalog, spec, AlgorithmPreset::kSSS).TraceOrder({1, 2, 0});
  EXPECT_DOUBLE_EQ(trace_ss[1].classes[0].chosen, 0.001);  // Smallest.
  const auto trace_m =
      Analyze(catalog, spec, AlgorithmPreset::kSM).TraceOrder({1, 2, 0});
  EXPECT_DOUBLE_EQ(trace_m[1].classes[0].chosen, 0.01 * 0.001);  // Product.
}

TEST(TraceTest, CartesianStepFlagged) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 10, {10.0});
  AddStatsOnlyTable(catalog, "B", 20, {20.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const auto trace = q.TraceOrder({0, 1});
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_TRUE(trace[0].cartesian);
  EXPECT_DOUBLE_EQ(trace[0].output_cardinality, 200);
}

TEST(TraceTest, FormatMentionsRuleAndSizes) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const std::string text = q.FormatTrace(q.TraceOrder({1, 2, 0}));
  EXPECT_NE(text.find("LS uses"), std::string::npos);
  EXPECT_NE(text.find("=> 1000 rows"), std::string::npos);
}

TEST(TraceTest, TraceConsistentWithEstimateOrder) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  for (AlgorithmPreset preset : AllPresets()) {
    AnalyzedQuery q = Analyze(catalog, spec, preset);
    const auto sizes = q.EstimateOrder({2, 0, 1});
    const auto trace = q.TraceOrder({2, 0, 1});
    ASSERT_EQ(sizes.size(), trace.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_DOUBLE_EQ(trace[i].output_cardinality, sizes[i])
          << PresetName(preset);
    }
  }
}

// ------------------------------------------------------ API edge cases

TEST(AnalyzedQueryTest, SingleTableEstimate) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 500, {50.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q.EstimateFullJoin(), 500);
}

TEST(AnalyzedQueryTest, EligiblePredicatesFiltersCorrectly) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  // Composite {R2, R3}, next R1: J1 (x=y) and derived J3 (x=z) eligible.
  const auto eligible = q.EligiblePredicates(0b110, 0);
  EXPECT_EQ(eligible.size(), 2u);
  // Composite {R2}, next R3: J2 only.
  EXPECT_EQ(q.EligiblePredicates(0b010, 2).size(), 1u);
  EXPECT_TRUE(q.MasksConnected(0b010, 0b100));
  EXPECT_TRUE(q.MasksConnected(0b010, 0b001));
}

TEST(AnalyzedQueryTest, RejectsInvalidSpec) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 10, {10.0});
  QuerySpec spec;  // No tables.
  spec.count_star = true;
  EXPECT_FALSE(
      AnalyzedQuery::Create(catalog, spec, PresetOptions(AlgorithmPreset::kELS))
          .ok());
}

TEST(AnalyzedQueryTest, CrossTableContradictionViaClosure) {
  // A.c0 = 5 AND B.c0 = 3 AND A.c0 = B.c0: rule e propagates both
  // constants across the class, making each table's restriction
  // contradictory.
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 100, {10.0});
  AddStatsOnlyTable(catalog, "B", 100, {10.0});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(5)));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kEq, V(3)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  EXPECT_TRUE(q.profile(0).is_empty);
  EXPECT_TRUE(q.profile(1).is_empty);
  EXPECT_DOUBLE_EQ(q.EstimateFullJoin(), 0);
}

TEST(AnalyzedQueryTest, GroupCountEstimates) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 10000, {100.0, 50.0});
  // No GROUP BY: falls back to the join-size estimate.
  QuerySpec plain = MakeCountSpec(catalog, 1);
  AnalyzedQuery q0 = Analyze(catalog, plain, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q0.EstimateGroupCount(), 10000);
  // Single group column, unfiltered: ~all 100 values appear.
  QuerySpec single = plain;
  single.group_by = {ColumnRef{0, 0}};
  AnalyzedQuery q1 = Analyze(catalog, single, AlgorithmPreset::kELS);
  EXPECT_DOUBLE_EQ(q1.EstimateGroupCount(), 100);
  // Composite key: domain 100×50 = 5000 over 10000 rows → urn-limited.
  QuerySpec composite = plain;
  composite.group_by = {ColumnRef{0, 0}, ColumnRef{0, 1}};
  AnalyzedQuery q2 = Analyze(catalog, composite, AlgorithmPreset::kELS);
  const double expected = UrnModelDistinctCeil(5000, 10000);
  EXPECT_DOUBLE_EQ(q2.EstimateGroupCount(), expected);
  EXPECT_LT(q2.EstimateGroupCount(), 5000);
}

TEST(AnalyzedQueryTest, GroupCountShrinksWithFilters) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 10000, {1000.0, 100.0});
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.group_by = {ColumnRef{0, 0}};
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kEq, V(1)));
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  // 100 surviving rows over a d'≈96-value domain (urn of 1000 over 100
  // rows): far fewer than 1000 groups.
  EXPECT_LT(q.EstimateGroupCount(), 101);
  EXPECT_GT(q.EstimateGroupCount(), 50);
}

TEST(AnalyzedQueryTest, TooManyTablesRejected) {
  Catalog catalog;
  QuerySpec spec;
  spec.count_star = true;
  for (int t = 0; t < 65; ++t) {
    AddStatsOnlyTable(catalog, "T" + std::to_string(t), 10, {10.0});
    ASSERT_TRUE(spec.AddTable(catalog, "T" + std::to_string(t)).ok());
  }
  const auto result =
      AnalyzedQuery::Create(catalog, spec, PresetOptions(AlgorithmPreset::kELS));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AnalyzedQueryTest, DebugStringMentionsConfiguration) {
  Catalog catalog = Example1Catalog();
  QuerySpec spec = Example1Spec(catalog);
  AnalyzedQuery q = Analyze(catalog, spec, AlgorithmPreset::kELS);
  const std::string text = q.DebugString();
  EXPECT_NE(text.find("rule=LS"), std::string::npos);
  EXPECT_NE(text.find("ptc=on"), std::string::npos);
  EXPECT_NE(text.find("R1.x = R3.z"), std::string::npos);  // Derived J3.
}

TEST(PresetTest, NamesAndPaperList) {
  EXPECT_STREQ(PresetName(AlgorithmPreset::kELS), "ELS");
  EXPECT_STREQ(PresetName(AlgorithmPreset::kSMNoPtc), "SM (no PTC)");
  EXPECT_EQ(PaperPresets().size(), 4u);
  EXPECT_EQ(AllPresets().size(), 6u);
}

TEST(PresetTest, OptionsMatchDefinitions) {
  EXPECT_FALSE(PresetOptions(AlgorithmPreset::kSMNoPtc).transitive_closure);
  EXPECT_TRUE(PresetOptions(AlgorithmPreset::kSM).transitive_closure);
  EXPECT_FALSE(
      PresetOptions(AlgorithmPreset::kSM).profile.apply_local_effects);
  EXPECT_TRUE(
      PresetOptions(AlgorithmPreset::kELS).profile.apply_local_effects);
  EXPECT_EQ(PresetOptions(AlgorithmPreset::kSSS).rule,
            SelectivityRule::kSmallest);
  EXPECT_EQ(PresetOptions(AlgorithmPreset::kELS).rule,
            SelectivityRule::kLargest);
}

}  // namespace
}  // namespace joinest
