// Observability-layer tests: exactness of the sharded metrics under
// concurrency, span nesting and ring behaviour of the tracing layer, the
// CheckFailure post-mortem dump, exclusive operator timing, and the
// EXPLAIN ANALYZE report on the paper's query.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "estimator/analyzed_query.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "obs/explain_analyze.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "storage/datasets.h"

namespace joinest {
namespace {

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, ConcurrentIncrementsScrapeToExactTotals) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("obs_test_ops_total");
  HistogramMetric& histogram = registry.GetHistogram(
      "obs_test_values", "", HistogramBuckets::Exponential(1.0, 2.0, 10));

  // The pool's worker count, so the test exercises the same concurrency
  // the pool produces (JOINEST_THREADS honoured).
  const int num_threads = std::max(NumPoolThreads(), 4);
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Sharded relaxed increments must still merge to the exact sum — no
  // lost updates, no double counting.
  const int64_t expected =
      static_cast<int64_t>(num_threads) * static_cast<int64_t>(kPerThread);
  EXPECT_EQ(counter.Value(), expected);
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, expected);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(expected));
  // All observations were exactly 1.0 = the first bound: `le` is inclusive.
  ASSERT_FALSE(snap.bucket_counts.empty());
  EXPECT_EQ(snap.bucket_counts[0], expected);
}

TEST(MetricsTest, RegistrationIsIdempotentAndLabelAware) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("requests", "help", {{"rule", "LS"}});
  Counter& b = registry.GetCounter("requests", "ignored", {{"rule", "LS"}});
  Counter& c = registry.GetCounter("requests", "help", {{"rule", "M"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Add(3);
  c.Add(5);
  EXPECT_EQ(a.Value(), 3);
  EXPECT_EQ(c.Value(), 5);
  EXPECT_EQ(RenderSeriesName("requests", {{"rule", "LS"}}),
            "requests{rule=\"LS\"}");
}

TEST(MetricsTest, ExpositionCarriesCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("events_total", "Event count").Add(7);
  registry.GetGauge("temperature", "Level").Set(2.5);
  registry
      .GetHistogram("latency_seconds", "Latency",
                    HistogramBuckets::Exponential(0.001, 10.0, 3))
      .Observe(0.005);

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(prom.find("events_total 7"), std::string::npos);
  EXPECT_NE(prom.find("temperature 2.5"), std::string::npos);
  // Cumulative buckets plus the +Inf catch-all, _sum and _count.
  EXPECT_NE(prom.find("latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("latency_seconds_count 1"), std::string::npos);

  const std::string json = registry.JsonText();
  EXPECT_NE(json.find("\"name\":\"latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(MetricsTest, BucketQuantilePinsExactAnswersOnKnownLayouts) {
  const std::vector<double> bounds = {10.0, 20.0, 40.0};

  // Empty histogram: no observations, no quantile.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);

  // One observation per finite bucket plus one overflow. Rank walks the
  // buckets one observation at a time; the maximum lives in +inf, whose
  // only defensible point estimate is the last finite bound.
  const std::vector<int64_t> spread = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 1.0 / 3.0), 20.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 2.0 / 3.0), 40.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 1.0), 40.0);

  // Uniform-within-bucket interpolation: 4 observations in [0, 10]; the
  // median sits at rank 2.5 of 4 = 62.5% of the way up the bucket.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {4, 0, 0, 0}, 0.5), 6.25);
  // 2 observations in (10, 20]; rank 1.5 of 2 = 75% into the bucket.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {0, 2, 0, 0}, 0.5), 17.5);
}

TEST(MetricsTest, ApproxQuantileReadsTheLiveBuckets) {
  MetricsRegistry registry;
  HistogramMetric& histogram = registry.GetHistogram(
      "obs_test_quantiles", "", HistogramBuckets::Exponential(1.0, 2.0, 3));
  // Bounds are {1, 2, 4}; `le` is inclusive, so these land one per bucket
  // (100 overflows into +inf).
  histogram.Observe(1.0);
  histogram.Observe(2.0);
  histogram.Observe(100.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(1.0), 4.0);  // Clamped to last
                                                         // finite bound.
}

TEST(MetricsTest, QErrorBucketsSpanOrdersOfMagnitude) {
  const HistogramBuckets buckets = HistogramBuckets::QError();
  ASSERT_FALSE(buckets.bounds.empty());
  EXPECT_DOUBLE_EQ(buckets.bounds.front(), 1.0);
  EXPECT_GT(buckets.bounds.back(), 1e3);
  for (size_t i = 1; i < buckets.bounds.size(); ++i) {
    EXPECT_GT(buckets.bounds[i], buckets.bounds[i - 1]);
  }
}

// ----------------------------------------------------------------- Tracing

TEST(TraceTest, SpanNestingRoundTripsThroughExport) {
  TraceSession session;
  session.Activate();
  {
    Span outer("outer");
    {
      Span inner("inner", "rows", 42);
    }
    Span sibling("sibling");
  }
  session.Deactivate();

  // Spans record on destruction: inner first, then sibling, then outer.
  const std::vector<TraceSession::Event> events = session.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "sibling");
  EXPECT_STREQ(events[2].name, "outer");

  const TraceSession::Event& inner = events[0];
  const TraceSession::Event& sibling = events[1];
  const TraceSession::Event& outer = events[2];
  EXPECT_EQ(outer.parent_id, -1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(sibling.parent_id, outer.id);
  EXPECT_EQ(sibling.depth, 1);
  EXPECT_EQ(inner.arg_value, 42);
  EXPECT_STREQ(inner.arg_name, "rows");
  // Containment on the shared monotonic clock.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);

  // Chrome trace-event schema essentials (tools/check_trace.py validates
  // the full schema in the analysis suite; this guards the C++ writer).
  const std::string json = session.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  int64_t balance = 0;
  for (char c : json) {
    if (c == '{') ++balance;
    if (c == '}') --balance;
  }
  EXPECT_EQ(balance, 0);
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped) {
  TraceSession session(/*capacity=*/8);
  session.Activate();
  for (int i = 0; i < 20; ++i) {
    Span span(i % 2 == 0 ? "even" : "odd", "i", i);
  }
  session.Deactivate();

  const std::vector<TraceSession::Event> events = session.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(session.dropped(), 12);
  EXPECT_EQ(session.total_events(), 20);
  // Oldest-first: the survivors are spans 12..19 in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg_value, static_cast<int64_t>(12 + i));
  }

  // The export header accounts for the ring exactly (tools/check_trace.py
  // enforces events + dropped == total against these fields).
  const std::string json = session.ToChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\":12"), std::string::npos);
  EXPECT_NE(json.find("\"total_events\":20"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
}

TEST(TraceTest, SpansAreInertWithoutActiveSession) {
  ASSERT_EQ(TraceSession::Active(), nullptr);
  {
    Span span("ignored");
  }
  TraceSession session;
  EXPECT_TRUE(session.Snapshot().empty());
}

TEST(TraceTest, InternReturnsStablePointers) {
  TraceSession session;
  const char* a = session.Intern("HashJoin::Open");
  const char* b = session.Intern("HashJoin::Open");
  const char* c = session.Intern("SeqScan::Open");
  EXPECT_EQ(a, b);
  EXPECT_STRNE(a, c);
}

#if JOINEST_CONTRACTS

using ObsDeathTest = ::testing::Test;

TEST(ObsDeathTest, CheckFailureDumpsActiveTrace) {
  const char* kPath = "obs_test_postmortem.json";
  std::remove(kPath);
  EXPECT_DEATH(
      {
        InstallCheckFailureTraceDump(kPath);
        TraceSession session;
        session.Activate();
        Span span("doomed_work");
        // Spans still open are not in the ring yet; give the dump one
        // finished event to carry.
        { Span done("finished_work"); }
        JOINEST_CHECK(false) << "deliberate failure with tracing active";
      },
      "dumped post-mortem trace to obs_test_postmortem.json");
  // The death-test child ran in this directory: its dump must be a Chrome
  // trace carrying the finished span.
  std::ifstream dump(kPath);
  ASSERT_TRUE(dump.good()) << "post-mortem file missing";
  std::stringstream content;
  content << dump.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.str().find("finished_work"), std::string::npos);
  std::remove(kPath);
}

#endif  // JOINEST_CONTRACTS

// ------------------------------------------------------- Operator timing

TEST(OperatorTimingTest, SelfTimeExcludesChildren) {
  Catalog catalog;
  ASSERT_TRUE(BuildExample1Dataset(catalog).ok());
  auto query = ParseQuery(
      catalog,
      "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z");
  ASSERT_TRUE(query.ok()) << query.status();
  const auto plan = CanonicalSafePlan(*query);
  auto result = ExecutePlan(catalog, *query, *plan);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_FALSE(result->operators.empty());
  double total_self = 0;
  double max_inclusive = 0;
  for (const OperatorStats& op : result->operators) {
    EXPECT_GE(op.self_seconds, 0.0) << op.name;
    EXPECT_LE(op.self_seconds, op.seconds + 1e-9) << op.name;
    total_self += op.self_seconds;
    max_inclusive = std::max(max_inclusive, op.seconds);
  }
  // Exclusive times partition the inclusive root time: their sum cannot
  // exceed the largest inclusive time (everything ran on one thread).
  EXPECT_LE(total_self, max_inclusive * (1.0 + 1e-6) + 1e-9);
  // Batch statistics flowed through the non-virtual wrapper.
  const OperatorStats& root = result->operators.back();
  EXPECT_GT(root.batches, 0);
  EXPECT_EQ(root.batch_rows, root.rows);
}

// AnalyzedQuery::Create counts analyses per rule through a handle it looks
// up once; the exported series must read as a per-call lookup would: one
// labelled series per rule in use, none for rules never used.
TEST(MetricsTest, EstimatorQueriesCounterExportsPerRule) {
  Catalog catalog;
  ASSERT_TRUE(BuildPaperDataset(catalog, PaperDatasetOptions{}).ok());
  auto query = ParseQuery(catalog,
                          "SELECT COUNT(*) FROM S, M WHERE S.s = M.m");
  ASSERT_TRUE(query.ok()) << query.status();
  auto analyse = [&](AlgorithmPreset preset) {
    ASSERT_TRUE(
        AnalyzedQuery::Create(catalog, *query, PresetOptions(preset)).ok());
  };
  // Registers the two series (with their help text) before reading them.
  analyse(AlgorithmPreset::kELS);
  analyse(AlgorithmPreset::kSM);
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto count = [&](const char* rule) {
    return registry.GetCounter("estimator_queries_total", "", {{"rule", rule}})
        .Value();
  };
  const int64_t ls = count("LS");
  const int64_t m = count("M");
  analyse(AlgorithmPreset::kELS);
  analyse(AlgorithmPreset::kELS);
  analyse(AlgorithmPreset::kSM);
  EXPECT_EQ(count("LS"), ls + 2);
  EXPECT_EQ(count("M"), m + 1);

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("# HELP estimator_queries_total Queries analysed for "
                      "estimation\n# TYPE estimator_queries_total counter\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("estimator_queries_total{rule=\"LS\"} " +
                      std::to_string(ls + 2) + "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("estimator_queries_total{rule=\"M\"} " +
                      std::to_string(m + 1) + "\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("estimator_queries_total{rule=\"REP\"}"),
            std::string::npos);
}

// ------------------------------------------------------- EXPLAIN ANALYZE

TEST(ExplainAnalyzeTest, PaperQueryReportsExactEstimates) {
  Catalog catalog;
  PaperDatasetOptions dataset;
  ASSERT_TRUE(BuildPaperDataset(catalog, dataset).ok());
  auto query = ParseQuery(catalog,
                          "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m "
                          "AND M.m = B.b AND B.b = G.g AND S.s < 100");
  ASSERT_TRUE(query.ok()) << query.status();

  ExplainAnalyzeOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  TraceSession session;
  session.Activate();
  auto report = ExplainAnalyzeQuery(catalog, *query, options);
  session.Deactivate();
  ASSERT_TRUE(report.ok()) << report.status();

  // The paper's construction: every prefix restricted by s < 100 has true
  // size exactly 100, and Rule LS estimates it exactly.
  EXPECT_EQ(report->count, 100);
  EXPECT_EQ(report->rule, std::string("LS"));
  ASSERT_EQ(report->join_levels.size(), 3u);
  for (const JoinLevel& level : report->join_levels) {
    EXPECT_EQ(level.actual, 100);
    ASSERT_EQ(level.per_rule.size(), 3u);  // kComparisonRules order.
    const RuleEstimate& ls = level.per_rule[0];
    const RuleEstimate& m = level.per_rule[1];
    EXPECT_EQ(ls.rule, "LS");
    EXPECT_EQ(m.rule, "M");
    EXPECT_EQ(level.per_rule[2].rule, "SS");
    EXPECT_NEAR(ls.rows, 100.0, 1e-6);
    EXPECT_NEAR(ls.q_error, 1.0, 1e-9);
    // Rule M multiplies independent selectivities and collapses.
    EXPECT_GT(m.q_error, ls.q_error);
  }

  // Each level's actual is the executed row count of that level's join:
  // join operator rows come pre-order, i.e. down the left spine.
  std::vector<int64_t> join_rows;
  for (const ExplainAnalyzeReport::OperatorRow& row : report->operators) {
    if (row.label.find("Join on") != std::string::npos) {
      ASSERT_TRUE(row.has_actual) << row.label;
      join_rows.insert(join_rows.begin(), row.actual_rows);
    }
  }
  ASSERT_EQ(join_rows.size(), report->join_levels.size());
  for (size_t k = 0; k < join_rows.size(); ++k) {
    EXPECT_EQ(report->join_levels[k].actual, join_rows[k]) << "level " << k;
  }
  // The actuals come from the plan's own run: no separate truth pass.
  for (const ExplainAnalyzeReport::SpanSummary& span : report->spans) {
    EXPECT_EQ(span.name.find("true_prefix"), std::string::npos) << span.name;
  }

  // Estimated and actual rows agree on every operator of the exact-stats
  // plan; the final aggregate row is present at depth 0.
  ASSERT_FALSE(report->operators.empty());
  EXPECT_EQ(report->operators.front().depth, 0);
  for (const ExplainAnalyzeReport::OperatorRow& row : report->operators) {
    if (row.has_estimate && row.has_actual) {
      EXPECT_NEAR(row.estimated_rows,
                  static_cast<double>(row.actual_rows), 1e-6)
          << row.label;
    }
  }

  // The caller's session traced the run: the report summarises estimator
  // and executor spans, and the session exports the trace document.
  EXPECT_GT(report->trace_events, 0);
  EXPECT_NE(session.ToChromeTraceJson().find("\"explain_analyze\""),
            std::string::npos);
  bool saw_estimator_span = false;
  for (const ExplainAnalyzeReport::SpanSummary& span : report->spans) {
    if (span.name.rfind("estimator::", 0) == 0) saw_estimator_span = true;
  }
  EXPECT_TRUE(saw_estimator_span);

  const std::string text = report->FormatText();
  EXPECT_NE(text.find("q-error"), std::string::npos);
  EXPECT_NE(text.find("COUNT(*) = 100"), std::string::npos);
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"qerrors\""), std::string::npos);

  // The q-errors fed the global registry's per-rule histograms.
  const std::string prom = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("estimator_qerror_count{rule=\"LS\"}"),
            std::string::npos);
}

// A bushy plan has no chain of prefixes to price: operator rows only.
TEST(ExplainAnalyzeTest, BushyPlanReportsNoJoinLevels) {
  Catalog catalog;
  ASSERT_TRUE(BuildPaperDataset(catalog, PaperDatasetOptions{}).ok());
  auto query = ParseQuery(catalog,
                          "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m "
                          "AND M.m = B.b AND B.b = G.g AND S.s < 100");
  ASSERT_TRUE(query.ok()) << query.status();
  // Tables S, M, B, G are 0..3; the joins are listed in that order.
  std::vector<Predicate> joins;
  std::vector<Predicate> local;
  for (const Predicate& p : query->predicates) {
    (p.kind == Predicate::Kind::kJoin ? joins : local).push_back(p);
  }
  ASSERT_EQ(joins.size(), 3u);
  auto plan = MakeJoinNode(
      JoinMethod::kHash,
      MakeJoinNode(JoinMethod::kHash, MakeScanNode(0, local),
                   MakeScanNode(1, {}), {joins[0]}),
      MakeJoinNode(JoinMethod::kHash, MakeScanNode(2, {}),
                   MakeScanNode(3, {}), {joins[2]}),
      {joins[1]});

  auto report = ExplainAnalyzePlan(catalog, *query, *plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->count, 100);
  EXPECT_TRUE(report->join_levels.empty());
  int joins_with_actuals = 0;
  for (const ExplainAnalyzeReport::OperatorRow& row : report->operators) {
    if (row.label.find("Join on") != std::string::npos && row.has_actual) {
      ++joins_with_actuals;
    }
  }
  EXPECT_EQ(joins_with_actuals, 3);
}

StatusOr<ExplainAnalyzeReport> ExplainPaperQuery() {
  Catalog catalog;
  JOINEST_RETURN_IF_ERROR(BuildPaperDataset(catalog, PaperDatasetOptions{}));
  JOINEST_ASSIGN_OR_RETURN(
      QuerySpec query,
      ParseQuery(catalog, "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m "
                          "AND M.m = B.b AND S.s < 100"));
  return ExplainAnalyzeQuery(catalog, query);
}

// EXPLAIN ANALYZE owns no trace: with no session active it turns none on
// and reports no spans.
TEST(ExplainAnalyzeTest, NoActiveSessionMeansNoSpans) {
  ASSERT_EQ(TraceSession::Active(), nullptr);
  auto report = ExplainPaperQuery();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(TraceSession::Active(), nullptr);
  EXPECT_TRUE(report->spans.empty());
  EXPECT_EQ(report->trace_events, 0);
  EXPECT_EQ(report->count, 100);
}

// Under one caller-owned session, each report summarises only its own run:
// the second call must not count the first call's events.
TEST(ExplainAnalyzeTest, ReportsOnlyItsOwnSpansFromTheCallerSession) {
  const auto counts = [](const ExplainAnalyzeReport& report) {
    std::map<std::string, int64_t> by_name;
    for (const ExplainAnalyzeReport::SpanSummary& span : report.spans) {
      // A pool task's span closes after its group is released, so it may
      // land just outside the window; every other span is synchronous.
      if (span.name != "ThreadPool::task") by_name[span.name] = span.count;
    }
    return by_name;
  };
  TraceSession session;
  session.Activate();
  auto first = ExplainPaperQuery();
  auto second = ExplainPaperQuery();
  session.Deactivate();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const std::map<std::string, int64_t> first_counts = counts(*first);
  ASSERT_EQ(first_counts.count("explain_analyze"), 1u);
  EXPECT_EQ(first_counts.at("explain_analyze"), 1);
  EXPECT_EQ(first_counts, counts(*second));
  // The session itself holds both runs.
  int64_t runs = 0;
  for (const TraceSession::Event& event : session.Snapshot()) {
    if (std::string(event.name) == "explain_analyze") ++runs;
  }
  EXPECT_EQ(runs, 2);
}

// The X-macro table in obs/metric_names.h is the telemetry contract: the
// runtime view must agree with it, and the production family names must be
// declared. (The full both-directions check — every Get* literal declared,
// every declared name used — is the metric-name-registry lint checker.)
TEST(MetricNamesTest, RuntimeViewMatchesTable) {
  EXPECT_TRUE(IsDeclaredMetricName("estimator_qerror"));
  EXPECT_TRUE(IsDeclaredMetricName("pool_tasks_total"));
  EXPECT_TRUE(IsDeclaredMetricName("service_snapshot_version"));
  EXPECT_TRUE(IsDeclaredMetricName("bench_service_warm_speedup"));
  EXPECT_FALSE(IsDeclaredMetricName("estimator_qerorr"));  // Typo.
  EXPECT_FALSE(IsDeclaredMetricName(""));

  // Every name in the table round-trips through the runtime view.
#define JOINEST_METRIC_NAME_EXPECT_(n) \
  EXPECT_TRUE(IsDeclaredMetricName(#n));
  JOINEST_METRIC_NAMES(JOINEST_METRIC_NAME_EXPECT_)
#undef JOINEST_METRIC_NAME_EXPECT_
}

TEST(QErrorValueTest, SymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QErrorValue(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(QErrorValue(200.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(QErrorValue(50.0, 100.0), 2.0);
  // Sub-row estimates clamp to one row instead of exploding.
  EXPECT_DOUBLE_EQ(QErrorValue(1e-8, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(QErrorValue(0.0, 0.0), 1.0);
}

}  // namespace
}  // namespace joinest
