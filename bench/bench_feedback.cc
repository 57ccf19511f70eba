// Feedback-driven estimation: q-error convergence and estimation throughput.
//
// The workload is a 4-table Zipf-skewed chain
//
//   A(a)  -a-  B(a, b)  -b-  C(b, c)  -c-  E(c)
//
// whose statistics-only estimates err badly: heavy hitters multiply through
// the joins, and the uniform-frequency assumption behind S_J = 1/max(d', d')
// cannot see them. A feedback-enabled session then runs the mix under
// EXPLAIN ANALYZE, recording every join prefix's ACTUAL cardinality into the
// database's FeedbackStore, and the same estimates are recomputed:
//
//   pass 1 — statistics only (empty store): the paper-faithful q-errors;
//   pass 2 — after one ingestion round: full-plan observations serve exact
//            answers, partial prefixes anchor the rest Glue-style;
//   pass 3 — after a second round: converged.
//
// The binary enforces (deterministically, in smoke and full runs alike):
//   * p95 q-error improves by >= 2x from pass 1 to pass 3;
//   * feedback-off estimates are bit-identical before and after ingestion
//     (the paper-faithful pipeline cannot be perturbed by the store);
//   * a warm re-estimate after convergence is a cache hit and bit-identical
//     to the cold feedback estimate (the store epoch is part of the key).
//
// Timed modes (median of repeats, cache off so the estimator actually runs):
//   estimate_off      — feedback-off estimation throughput;
//   estimate_feedback — feedback-on against the converged store (fingerprint
//                       computation + store lookups included).
// rows_per_sec in the JSON is estimates/sec — the regression-gate contract
// (tools/check_bench_regression.py) only compares that key per mode.
//
// Usage: bench_feedback [--smoke] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_timer.h"
#include "common/json_writer.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "joinest/joinest.h"
#include "storage/datagen.h"

namespace joinest {
namespace {

// A(a), B(a, b), C(b, c), E(c): a and b Zipf-skewed (the estimation errors
// under test), c uniform with E covering only a prefix of C's domain (a
// selective final join, so 4-table plans have interesting prefixes).
void LoadFixture(Database& db, int64_t scale) {
  Rng rng(42);
  const int64_t d_ab = std::max<int64_t>(8, scale / 16);
  const int64_t e_rows = std::max<int64_t>(16, scale / 50);
  const int64_t d_c = 20 * e_rows;

  Table a = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(scale, d_ab, 0.9, rng))});
  Table b = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(scale, d_ab, 0.9, rng)),
       ToValueColumn(MakeZipfColumn(scale, d_ab, 0.9, rng))});
  Table c = Table::FromColumns(
      Schema({{"b", TypeKind::kInt64}, {"c", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(scale, d_ab, 0.9, rng)),
       ToValueColumn(MakeUniformColumn(scale, d_c, rng))});
  Table e = Table::FromColumns(
      Schema({{"c", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(e_rows, e_rows, rng))});
  JOINEST_CHECK(db.LoadTable("A", std::move(a)).ok());
  JOINEST_CHECK(db.LoadTable("B", std::move(b)).ok());
  JOINEST_CHECK(db.LoadTable("C", std::move(c)).ok());
  JOINEST_CHECK(db.LoadTable("E", std::move(e)).ok());
}

// The estimate mix: joins of every chain length plus local-predicate
// variants, so full-plan hits, prefix hits and pure fallbacks all occur.
const char* kQueries[] = {
    "SELECT COUNT(*) FROM A, B WHERE A.a = B.a",
    "SELECT COUNT(*) FROM B, C WHERE B.b = C.b",
    "SELECT COUNT(*) FROM C, E WHERE C.c = E.c",
    "SELECT COUNT(*) FROM A, B, C WHERE A.a = B.a AND B.b = C.b",
    "SELECT COUNT(*) FROM B, C, E WHERE B.b = C.b AND C.c = E.c",
    "SELECT COUNT(*) FROM A, B, C, E "
    "WHERE A.a = B.a AND B.b = C.b AND C.c = E.c",
    "SELECT COUNT(*) FROM A, B WHERE A.a = B.a AND B.b < 50",
    "SELECT COUNT(*) FROM A, B, C WHERE A.a = B.a AND B.b = C.b AND C.c < "
    "1000",
};
constexpr int kNumQueries = static_cast<int>(std::size(kQueries));

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  std::string out_path = "BENCH_feedback.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  // Full scale is bounded by the ground-truth computation: the Zipf-skewed
  // chain's true join sizes grow superlinearly in scale, and the accuracy
  // passes run EXPLAIN ANALYZE (which executes every query) over the whole
  // mix twice.
  const int64_t scale = smoke ? 20000 : 40000;
  const int repeats = smoke ? 3 : 5;
  std::fprintf(stderr, "building fixture (scale %lld)...\n",
               static_cast<long long>(scale));
  Database db;
  LoadFixture(db, scale);

  const Session off_session =
      db.CreateSession(Session::Options()
                           .set_preset(AlgorithmPreset::kELS)
                           .set_use_cache(false))
          .value();
  const Session fb_session =
      db.CreateSession(
            Session::Options()
                .set_preset(AlgorithmPreset::kELS)
                .set_features(EstimatorFeatures{.feedback = true}))
          .value();
  // Cache-off twin of fb_session for honest throughput timing.
  const Session fb_nocache =
      db.CreateSession(
            Session::Options()
                .set_preset(AlgorithmPreset::kELS)
                .set_features(EstimatorFeatures{.feedback = true})
                .set_use_cache(false))
          .value();

  std::vector<PreparedQuery> prepared;
  for (const char* sql : kQueries) {
    prepared.push_back(fb_session.Prepare(sql).value());
  }

  // Ground truth, measured once with feedback OFF so nothing is seeded yet.
  std::vector<double> truth(kNumQueries);
  std::vector<double> baseline_rows(kNumQueries);
  for (int q = 0; q < kNumQueries; ++q) {
    truth[q] = static_cast<double>(
        off_session.Execute(prepared[q]).value().execution.count);
    baseline_rows[q] = off_session.Estimate(prepared[q]).value().rows();
  }

  std::printf("== feedback-driven estimation: %d queries, scale %lld%s ==\n",
              kNumQueries, static_cast<long long>(scale),
              smoke ? " (smoke)" : "");

  // Accuracy passes: estimate the whole mix, then ingest actuals via
  // EXPLAIN ANALYZE (which also records every join prefix).
  constexpr int kPasses = 3;
  double p95[kPasses];
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<double> qerrors(kNumQueries);
    for (int q = 0; q < kNumQueries; ++q) {
      const EstimateResult estimate = fb_session.Estimate(prepared[q]).value();
      qerrors[q] = QErrorValue(estimate.rows(), truth[q]);
    }
    p95[pass] = NearestRank(qerrors, 0.95);
    std::printf("pass %d: p95 q-error %.3f (store: %lld observations)\n",
                pass + 1, p95[pass],
                static_cast<long long>(db.feedback_store().size()));
    if (pass + 1 < kPasses) {
      for (int q = 0; q < kNumQueries; ++q) {
        JOINEST_CHECK(fb_session.ExplainAnalyze(prepared[q]).ok());
      }
    }
  }
  const double convergence =
      p95[kPasses - 1] > 0 ? p95[0] / p95[kPasses - 1] : 0;
  std::printf("convergence: %.2fx (p95 pass 1 / p95 pass %d)\n", convergence,
              kPasses);

  // Paper-faithful protection: feedback-off estimates are bit-identical
  // before and after the store filled up.
  for (int q = 0; q < kNumQueries; ++q) {
    const double rows = off_session.Estimate(prepared[q]).value().rows();
    JOINEST_CHECK(rows == baseline_rows[q])
        << "feedback-off estimate perturbed for query " << q << ": "
        << baseline_rows[q] << " -> " << rows;
  }

  // Warm-cache contract: with the store converged (epoch stable), the second
  // feedback estimate is a cache hit and bit-identical to the first.
  for (int q = 0; q < kNumQueries; ++q) {
    const EstimateResult cold = fb_session.Estimate(prepared[q]).value();
    const EstimateResult warm = fb_session.Estimate(prepared[q]).value();
    JOINEST_CHECK(warm.cache_hit()) << "query " << q << " missed warm cache";
    JOINEST_CHECK(warm.rows() == cold.rows())
        << "warm feedback estimate diverged for query " << q;
  }

  // Throughput: full estimate sweeps, cache off.
  std::vector<ModeResult> results;
  results.push_back(TimeMode("estimate_off", repeats, [&] {
    for (int q = 0; q < kNumQueries; ++q) {
      JOINEST_CHECK(off_session.Estimate(prepared[q]).ok());
    }
    return int64_t{kNumQueries};
  }));
  results.push_back(TimeMode("estimate_feedback", repeats, [&] {
    for (int q = 0; q < kNumQueries; ++q) {
      JOINEST_CHECK(fb_nocache.Estimate(prepared[q]).ok());
    }
    return int64_t{kNumQueries};
  }));

  TablePrinter printer({"mode", "wall s", "estimates/sec"});
  char buf[64];
  for (const ModeResult& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.5f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", r.per_sec);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);

  // Registry-scrape-then-serialise: gauges are the source of truth.
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int pass = 0; pass < kPasses; ++pass) {
    registry
        .GetGauge("bench_feedback_p95_qerror",
                  "p95 q-error of the mix at each feedback pass",
                  {{"pass", std::to_string(pass + 1)}})
        .Set(p95[pass]);
  }
  Gauge& convergence_gauge = registry.GetGauge(
      "bench_feedback_convergence_ratio",
      "pass-1 p95 q-error over pass-3 p95 q-error");
  convergence_gauge.Set(convergence);
  auto mode_gauge = [&registry](const char* name,
                                const std::string& mode) -> Gauge& {
    return registry.GetGauge(name, "bench_feedback per-mode result",
                             {{"mode", mode}});
  };
  for (const ModeResult& r : results) {
    mode_gauge("bench_feedback_seconds", r.mode).Set(r.seconds);
    mode_gauge("bench_feedback_queries_per_sec", r.mode).Set(r.per_sec);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("feedback");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("scale");
  json.Int(scale);
  json.Key("queries");
  json.Int(kNumQueries);
  json.Key("repeats");
  json.Int(repeats);
  json.Key("p95_qerror");
  json.BeginArray();
  for (int pass = 0; pass < kPasses; ++pass) json.Number(p95[pass]);
  json.EndArray();
  json.Key("convergence_ratio");
  json.Number(convergence_gauge.Value());
  json.Key("modes");
  json.BeginArray();
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("seconds");
    json.Number(mode_gauge("bench_feedback_seconds", r.mode).Value());
    json.Key("rows_per_sec");
    json.Number(
        mode_gauge("bench_feedback_queries_per_sec", r.mode).Value());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  // The headline contract. Estimates are deterministic, so unlike the
  // throughput ratios this holds at smoke scale too.
  if (convergence < 2.0) {
    std::fprintf(stderr, "FAIL: p95 q-error convergence %.2fx < 2x\n",
                 convergence);
    return 1;
  }
  return 0;
}
