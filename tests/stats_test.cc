// Tests for stats/: urn-model distinct estimation, histograms, CompareOp
// helpers.

#include <cmath>

#include "common/random.h"
#include "gtest/gtest.h"
#include "stats/column_stats.h"
#include "stats/distinct.h"
#include "stats/histogram.h"
#include "stats/stats_io.h"
#include "workloads/metrics.h"

namespace joinest {
namespace {

// ---------------------------------------------------------------- distinct

TEST(UrnModelTest, PaperSection5Example) {
  // d=10000, ||R||=100000, ||R||'=50000 → 9933 (vs linear 5000).
  EXPECT_EQ(std::lround(UrnModelDistinct(10000, 50000)), 9933);
  EXPECT_DOUBLE_EQ(LinearRatioDistinct(10000, 100000, 50000), 5000);
}

TEST(UrnModelTest, FullTableKeepsAllDistinct) {
  // Paper: at ||R||' = ||R|| (d ≪ n), d' ≈ d.
  EXPECT_EQ(std::lround(UrnModelDistinct(10000, 100000)), 10000);
}

TEST(UrnModelTest, PaperSection6Example) {
  // d=10, k=20 → ⌈10(1-0.9^20)⌉ = 9.
  EXPECT_EQ(UrnModelDistinctCeil(10, 20), 9);
}

TEST(UrnModelTest, Boundaries) {
  EXPECT_DOUBLE_EQ(UrnModelDistinct(0, 10), 0);
  EXPECT_DOUBLE_EQ(UrnModelDistinct(10, 0), 0);
  EXPECT_DOUBLE_EQ(UrnModelDistinct(1, 5), 1);
}

TEST(UrnModelTest, SingleDrawYieldsOne) {
  EXPECT_DOUBLE_EQ(UrnModelDistinct(1000, 1), 1.0);
}

TEST(UrnModelTest, MonotoneInDraws) {
  double prev = 0;
  for (double k : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    const double d = UrnModelDistinct(500, k);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(UrnModelTest, NeverExceedsDomain) {
  for (double d : {1.0, 7.0, 100.0, 1e6}) {
    for (double k : {1.0, 50.0, 1e7}) {
      EXPECT_LE(UrnModelDistinct(d, k), d);
      EXPECT_LE(UrnModelDistinctCeil(d, k), d);
    }
  }
}

TEST(UrnModelTest, NumericallyStableForHugeDomains) {
  // Naive (1-1/d)^k loses all precision at d=1e15; expm1/log1p must not.
  const double d = 1e15;
  const double k = 1e15;
  const double expected = d * (1 - std::exp(-1.0));  // k/d = 1.
  EXPECT_NEAR(UrnModelDistinct(d, k) / expected, 1.0, 1e-9);
}

TEST(UrnModelTest, MatchesSimulation) {
  // Empirical check of the expectation: throw k balls into d urns.
  Rng rng(99);
  const int d = 200, k = 300, trials = 200;
  double total = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> hit(d, false);
    for (int i = 0; i < k; ++i) hit[rng.NextBounded(d)] = true;
    int nonempty = 0;
    for (bool b : hit) nonempty += b;
    total += nonempty;
  }
  EXPECT_NEAR(total / trials, UrnModelDistinct(d, k), 3.0);
}

// ---------------------------------------------------------------- CompareOp

TEST(CompareOpTest, Symbols) {
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "<>");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLt), "<");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGt), ">");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGe), ">=");
}

TEST(CompareOpTest, FlipIsInvolution) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_EQ(FlipCompareOp(FlipCompareOp(op)), op);
  }
}

TEST(CompareOpTest, FlipSwapsDirections) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
}

// ---------------------------------------------------------------- Histogram

std::vector<double> UniformData(int n, int d) {
  std::vector<double> data;
  for (int i = 0; i < n; ++i) data.push_back(i % d);
  return data;
}

TEST(HistogramTest, EmptyDataYieldsZeroSelectivity) {
  const Histogram h = Histogram::BuildEquiDepth({}, 8);
  EXPECT_EQ(h.Selectivity(CompareOp::kEq, 5), 0);
  EXPECT_EQ(h.RangeSelectivity(0, true, 10, true), 0);
}

TEST(HistogramTest, SingleValueColumn) {
  const Histogram h = Histogram::BuildEquiWidth({7, 7, 7, 7}, 4);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 7), 1.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 8), 0.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLt, 7), 0.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kGt, 7), 0.0);
}

TEST(HistogramTest, BucketsPartitionRows) {
  for (auto builder : {&Histogram::BuildEquiWidth,
                       &Histogram::BuildEquiDepth}) {
    const Histogram h = builder(UniformData(1000, 100), 16);
    double rows = 0;
    for (const HistogramBucket& b : h.buckets()) rows += b.rows;
    EXPECT_DOUBLE_EQ(rows, 1000);
    EXPECT_DOUBLE_EQ(h.total_rows(), 1000);
  }
}

TEST(HistogramTest, BucketsAreOrderedAndDisjoint) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(1000, 97), 16);
  for (size_t i = 1; i < h.buckets().size(); ++i) {
    EXPECT_GT(h.buckets()[i].lo, h.buckets()[i - 1].hi);
  }
}

TEST(HistogramTest, EquiDepthBucketsBalanced) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(10000, 1000), 10);
  for (const HistogramBucket& b : h.buckets()) {
    EXPECT_NEAR(b.rows, 1000, 200);
  }
}

TEST(HistogramTest, EqualitySelectivityUniform) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(1000, 100), 10);
  // Each value holds exactly 1% of rows.
  EXPECT_NEAR(h.Selectivity(CompareOp::kEq, 42), 0.01, 0.003);
}

TEST(HistogramTest, RangeSelectivityUniform) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(10000, 1000), 32);
  // value < 250 over {0..999} ≈ 25%.
  EXPECT_NEAR(h.Selectivity(CompareOp::kLt, 250), 0.25, 0.02);
  EXPECT_NEAR(h.Selectivity(CompareOp::kGe, 250), 0.75, 0.02);
}

TEST(HistogramTest, OperatorsSumToOne) {
  const Histogram h = Histogram::BuildEquiWidth(UniformData(5000, 500), 20);
  for (double v : {0.0, 100.0, 250.0, 499.0}) {
    EXPECT_NEAR(h.Selectivity(CompareOp::kLt, v) +
                    h.Selectivity(CompareOp::kEq, v) +
                    h.Selectivity(CompareOp::kGt, v),
                1.0, 1e-9);
    EXPECT_NEAR(h.Selectivity(CompareOp::kEq, v) +
                    h.Selectivity(CompareOp::kNe, v),
                1.0, 1e-9);
  }
}

TEST(HistogramTest, OutOfRangeValues) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(100, 10), 4);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, -5), 0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 99), 0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLt, -5), 0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kGt, 99), 0);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kLt, 99), 1.0);
}

TEST(HistogramTest, SkewedEquiDepthBeatsEquiWidthOnHeavyHitter) {
  // 90% of rows are value 0; the rest uniform over 1..999.
  std::vector<double> data;
  Rng rng(31);
  for (int i = 0; i < 9000; ++i) data.push_back(0);
  for (int i = 0; i < 1000; ++i) {
    data.push_back(1 + static_cast<double>(rng.NextBounded(999)));
  }
  const Histogram depth = Histogram::BuildEquiDepth(data, 16);
  const double sel = depth.Selectivity(CompareOp::kEq, 0);
  EXPECT_NEAR(sel, 0.9, 0.05);
}

TEST(HistogramTest, RangeSelectivityRespectsBounds) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(10000, 1000), 32);
  EXPECT_NEAR(h.RangeSelectivity(250, true, 500, false), 0.25, 0.02);
  EXPECT_DOUBLE_EQ(h.RangeSelectivity(500, true, 250, true), 0);
  EXPECT_NEAR(h.RangeSelectivity(-100, true, 2000, true), 1.0, 1e-9);
}

TEST(HistogramTest, EquiDepthNeverSplitsValueRuns) {
  // A run of equal values bigger than a bucket must stay in one bucket.
  std::vector<double> data(100, 5.0);
  for (int i = 0; i < 100; ++i) data.push_back(100 + i);
  const Histogram h = Histogram::BuildEquiDepth(data, 10);
  int buckets_containing_5 = 0;
  for (const HistogramBucket& b : h.buckets()) {
    if (b.lo <= 5 && 5 <= b.hi) ++buckets_containing_5;
  }
  EXPECT_EQ(buckets_containing_5, 1);
}

TEST(HistogramTest, EndBiasedSingletonsExact) {
  // 80% of rows are value 0, 10% are value 1, tail uniform over 2..101.
  std::vector<double> data;
  for (int i = 0; i < 8000; ++i) data.push_back(0);
  for (int i = 0; i < 1000; ++i) data.push_back(1);
  for (int i = 0; i < 1000; ++i) data.push_back(2 + i % 100);
  const Histogram h = Histogram::BuildEndBiased(data, 2, 8);
  EXPECT_EQ(h.kind(), Histogram::Kind::kEndBiased);
  // Heavy hitters estimated EXACTLY.
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 0), 0.8);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 1), 0.1);
  // Tail value: ~0.1% each.
  EXPECT_NEAR(h.Selectivity(CompareOp::kEq, 50), 0.001, 0.0005);
}

TEST(HistogramTest, EndBiasedBucketsDisjointAndComplete) {
  std::vector<double> data;
  Rng rng(5);
  ZipfDistribution zipf(500, 1.2);
  for (int i = 0; i < 20000; ++i) {
    data.push_back(static_cast<double>(zipf.Sample(rng)));
  }
  const Histogram h = Histogram::BuildEndBiased(data, 10, 16);
  double rows = 0;
  for (size_t i = 0; i < h.buckets().size(); ++i) {
    rows += h.buckets()[i].rows;
    if (i > 0) {
      EXPECT_GT(h.buckets()[i].lo, h.buckets()[i - 1].hi)
          << "buckets overlap at " << i;
    }
  }
  EXPECT_DOUBLE_EQ(rows, 20000);
}

TEST(HistogramTest, EndBiasedOperatorsStillConsistent) {
  std::vector<double> data;
  Rng rng(6);
  ZipfDistribution zipf(200, 1.0);
  for (int i = 0; i < 5000; ++i) {
    data.push_back(static_cast<double>(zipf.Sample(rng)));
  }
  const Histogram h = Histogram::BuildEndBiased(data, 8, 8);
  for (double v : {1.0, 2.0, 17.0, 100.0, 200.0}) {
    EXPECT_NEAR(h.Selectivity(CompareOp::kLt, v) +
                    h.Selectivity(CompareOp::kEq, v) +
                    h.Selectivity(CompareOp::kGt, v),
                1.0, 1e-9)
        << "at v=" << v;
  }
}

TEST(HistogramTest, EndBiasedFewDistinctAllSingletons) {
  const Histogram h = Histogram::BuildEndBiased({1, 1, 2, 3, 3, 3}, 10, 4);
  EXPECT_EQ(h.buckets().size(), 3u);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 3), 0.5);
  EXPECT_DOUBLE_EQ(h.Selectivity(CompareOp::kEq, 2), 1.0 / 6);
}

TEST(HistogramTest, EndBiasedBeatsEquiDepthOnHotKey) {
  // A hot key hiding inside a wide bucket: end-biased isolates it.
  std::vector<double> data;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) data.push_back(500);  // Hot key mid-domain.
  for (int i = 0; i < 5000; ++i) {
    data.push_back(static_cast<double>(rng.NextBounded(1000)));
  }
  const Histogram end_biased = Histogram::BuildEndBiased(data, 4, 8);
  const double true_sel = 0.5 + 0.5 / 1000;  // ~0.5005.
  const double eb_sel = end_biased.Selectivity(CompareOp::kEq, 500);
  EXPECT_NEAR(eb_sel, true_sel, 0.01);
}

TEST(HistogramTest, DistinctCountsTracked) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(1000, 10), 5);
  double distinct = 0;
  for (const HistogramBucket& b : h.buckets()) distinct += b.distinct;
  EXPECT_DOUBLE_EQ(distinct, 10);
}

// ------------------------------------------------ Histogram join sel.

TEST(HistogramJoinTest, UniformDegeneratesToEquation2) {
  // Two uniform columns over nested domains: segment formula must land on
  // 1/max(d1, d2) (paper Equation 2).
  const Histogram a = Histogram::BuildEquiDepth(UniformData(10000, 100), 16);
  const Histogram b = Histogram::BuildEquiDepth(UniformData(5000, 500), 16);
  const double sel = HistogramJoinSelectivity(a, b);
  EXPECT_NEAR(sel, 1.0 / 500, 1.0 / 500 * 0.15);
}

TEST(HistogramJoinTest, SymmetricInArguments) {
  const Histogram a = Histogram::BuildEquiDepth(UniformData(1000, 50), 8);
  const Histogram b = Histogram::BuildEquiDepth(UniformData(2000, 80), 8);
  EXPECT_DOUBLE_EQ(HistogramJoinSelectivity(a, b),
                   HistogramJoinSelectivity(b, a));
}

TEST(HistogramJoinTest, DisjointDomainsZero) {
  std::vector<double> low, high;
  for (int i = 0; i < 100; ++i) {
    low.push_back(i % 10);
    high.push_back(100 + i % 10);
  }
  const Histogram a = Histogram::BuildEquiDepth(low, 4);
  const Histogram b = Histogram::BuildEquiDepth(high, 4);
  EXPECT_DOUBLE_EQ(HistogramJoinSelectivity(a, b), 0);
}

TEST(HistogramJoinTest, EmptyHistogramZero) {
  const Histogram a = Histogram::BuildEquiDepth({}, 4);
  const Histogram b = Histogram::BuildEquiDepth(UniformData(100, 10), 4);
  EXPECT_DOUBLE_EQ(HistogramJoinSelectivity(a, b), 0);
}

TEST(HistogramJoinTest, HotKeyPairTracked) {
  // Both sides 90% value 0: true join fraction ≈ 0.81, which 1/max(d)
  // (= 1/10) wildly underestimates.
  std::vector<double> skewed;
  for (int i = 0; i < 9000; ++i) skewed.push_back(0);
  for (int i = 0; i < 1000; ++i) skewed.push_back(1 + i % 9);
  const Histogram a = Histogram::BuildEndBiased(skewed, 4, 8);
  const Histogram b = Histogram::BuildEndBiased(skewed, 4, 8);
  const double sel = HistogramJoinSelectivity(a, b);
  EXPECT_GT(sel, 0.7);
  EXPECT_LT(sel, 0.95);
}

TEST(HistogramJoinTest, ZipfAccuracyBeatsUniformFormula) {
  Rng rng(77);
  std::vector<double> a_data, b_data;
  ZipfDistribution zipf_a(200, 1.2), zipf_b(200, 1.2);
  for (int i = 0; i < 20000; ++i) {
    a_data.push_back(static_cast<double>(zipf_a.Sample(rng)));
  }
  for (int i = 0; i < 10000; ++i) {
    b_data.push_back(static_cast<double>(zipf_b.Sample(rng)));
  }
  // Exact join fraction.
  std::vector<double> count_a(201, 0), count_b(201, 0);
  for (double v : a_data) ++count_a[static_cast<int>(v)];
  for (double v : b_data) ++count_b[static_cast<int>(v)];
  double matches = 0;
  for (int v = 0; v <= 200; ++v) matches += count_a[v] * count_b[v];
  const double truth = matches / (a_data.size() * b_data.size());

  const Histogram ha = Histogram::BuildEndBiased(a_data, 16, 32);
  const Histogram hb = Histogram::BuildEndBiased(b_data, 16, 32);
  const double hist_sel = HistogramJoinSelectivity(ha, hb);
  const double uniform_sel = 1.0 / 200;
  EXPECT_LT(QError(hist_sel, truth), QError(uniform_sel, truth) / 2)
      << "hist " << hist_sel << " uniform " << uniform_sel << " truth "
      << truth;
}

// ---------------------------------------------------------------- Slice

TEST(HistogramSliceTest, FullRangeIsIdentity) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(1000, 100), 8);
  const Histogram sliced = h.Slice(-HUGE_VAL, HUGE_VAL);
  EXPECT_DOUBLE_EQ(sliced.total_rows(), h.total_rows());
  EXPECT_EQ(sliced.buckets().size(), h.buckets().size());
}

TEST(HistogramSliceTest, HalfRangeKeepsHalfTheRows) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(10000, 1000), 32);
  const Histogram sliced = h.Slice(0, 499);
  EXPECT_NEAR(sliced.total_rows(), 5000, 300);
  for (const HistogramBucket& b : sliced.buckets()) {
    EXPECT_GE(b.lo, 0);
    EXPECT_LE(b.hi, 499);
  }
}

TEST(HistogramSliceTest, DisjointRangeIsEmpty) {
  const Histogram h = Histogram::BuildEquiDepth(UniformData(100, 10), 4);
  EXPECT_DOUBLE_EQ(h.Slice(1000, 2000).total_rows(), 0);
}

TEST(HistogramSliceTest, PointBucketsKeptWhenInside) {
  std::vector<double> data(100, 5.0);
  for (int i = 0; i < 100; ++i) data.push_back(10 + i);
  const Histogram h = Histogram::BuildEndBiased(data, 1, 4);
  const Histogram keep = h.Slice(0, 7);
  EXPECT_DOUBLE_EQ(keep.total_rows(), 100);  // The hot key at 5.
  const Histogram drop = h.Slice(6, 7);
  EXPECT_DOUBLE_EQ(drop.total_rows(), 0);
}

// ---------------------------------------------------------------- IO

TEST(StatsIoTest, RoundTripPlainStats) {
  TableStats stats;
  stats.row_count = 1234;
  ColumnStats col;
  col.distinct_count = 56;
  col.min = -3;
  col.max = 99;
  stats.columns.push_back(col);
  ColumnStats col2;
  col2.distinct_count = 7;
  stats.columns.push_back(col2);

  const std::string text = SerializeTableStats(stats);
  auto parsed = ParseTableStats(text, 2);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->row_count, 1234);
  EXPECT_DOUBLE_EQ(parsed->column(0).distinct_count, 56);
  EXPECT_DOUBLE_EQ(*parsed->column(0).min, -3);
  EXPECT_DOUBLE_EQ(*parsed->column(0).max, 99);
  EXPECT_FALSE(parsed->column(1).min.has_value());
}

TEST(StatsIoTest, RoundTripWithHistogram) {
  TableStats stats;
  stats.row_count = 1000;
  ColumnStats col;
  col.distinct_count = 100;
  col.min = 0;
  col.max = 99;
  col.histogram = std::make_shared<Histogram>(
      Histogram::BuildEquiDepth(UniformData(1000, 100), 8));
  stats.columns.push_back(col);

  const std::string text = SerializeTableStats(stats);
  auto parsed = ParseTableStats(text, 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_NE(parsed->column(0).histogram, nullptr);
  EXPECT_DOUBLE_EQ(parsed->column(0).histogram->total_rows(), 1000);
  // Selectivities survive the round trip.
  EXPECT_NEAR(parsed->column(0).histogram->Selectivity(CompareOp::kLt, 50),
              col.histogram->Selectivity(CompareOp::kLt, 50), 1e-12);
}

TEST(StatsIoTest, CommentsAndBlanksIgnored) {
  auto parsed = ParseTableStats(
      "# a comment\nrows 10\n\ncolumn 0 distinct 5  # trailing\n", 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->row_count, 10);
}

TEST(StatsIoTest, ErrorsOnGarbage) {
  EXPECT_FALSE(ParseTableStats("nonsense 5\n").ok());
  EXPECT_FALSE(ParseTableStats("rows -5\n").ok());
  EXPECT_FALSE(ParseTableStats("column 0 distinct 5\n").ok());  // No rows.
  EXPECT_FALSE(
      ParseTableStats("rows 10\nbucket 0 1 2 3 4\n").ok());  // No column 0.
  EXPECT_FALSE(ParseTableStats("rows 10\ncolumn 0 distinct 5\n"
                               "bucket 0 5 1 3 4\n")
                   .ok());  // hi < lo.
}

TEST(StatsIoTest, ColumnCountValidated) {
  EXPECT_FALSE(ParseTableStats("rows 10\ncolumn 0 distinct 5\n", 2).ok());
  EXPECT_TRUE(ParseTableStats("rows 10\ncolumn 0 distinct 5\n", 1).ok());
}

TEST(StatsIoTest, OverlappingBucketsRejected) {
  EXPECT_FALSE(ParseTableStats("rows 10\ncolumn 0 distinct 5\n"
                               "bucket 0 0 5 3 2\nbucket 0 4 9 3 2\n")
                   .ok());
}

// ---------------------------------------------------------------- Stats

TEST(ColumnStatsTest, ToStringIncludesFields) {
  ColumnStats stats;
  stats.distinct_count = 42;
  stats.min = 1;
  stats.max = 9;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("d=42"), std::string::npos);
  EXPECT_NE(text.find("min=1"), std::string::npos);
  EXPECT_NE(text.find("max=9"), std::string::npos);
}

TEST(TableStatsTest, ColumnAccessor) {
  TableStats stats;
  stats.row_count = 10;
  stats.columns.resize(3);
  stats.columns[2].distinct_count = 7;
  EXPECT_DOUBLE_EQ(stats.column(2).distinct_count, 7);
}

}  // namespace
}  // namespace joinest
