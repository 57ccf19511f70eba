// Executor throughput: the batch execution path on a COUNT(*) over a
// 3-table chain.
//
// Modes, all required to produce bit-identical counts:
//   batch_generic — the batch driver with kernel specialization disabled
//                   (CompileOptions), i.e. per-row Value dispatch;
//   batch         — the batch driver with type-specialized kernels;
//   batch_recorder — batch plus the flight-recorder capture the service
//                   layer performs per query (one QueryRecord per run into
//                   an enabled recorder): the recorder-on overhead probe,
//                   gated <= 2% over batch by check_bench_regression.py
//                   --overhead-pair batch_recorder:batch.
//
// Full (non-smoke) runs enforce the executor's perf contract: batch must
// beat batch_generic by >= 1.5x (kernel specialization pays).
//
// Each mode runs one warm-up plus `repeats` timed runs; the reported wall
// time is the median. rows/sec normalises by total base-table rows so the
// modes are comparable. Results land in BENCH_executor.json (see
// tools/check_bench_regression.py for the CI gate).
//
// Usage: bench_executor [--smoke] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_timer.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "executor/compile.h"
#include "executor/execute.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "storage/table.h"

namespace joinest {
namespace {

// ------------------------------------------------------------- Fixture

struct Fixture {
  Catalog catalog;
  QuerySpec spec;
  int64_t total_rows = 0;
};

// A 3-table chain T0 -a- T1 -b- T2 with a 50% filter on T0. Domain sizes
// keep the join output around 8x the base rows — enough fan-out that probe
// cost dominates, small enough that every mode finishes quickly.
Fixture MakeFixture(int64_t scale) {
  Fixture f;
  Rng rng(42);
  const int64_t d = std::max<int64_t>(4, scale / 4);
  Table t0 = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng))});
  Table t1 = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng)),
       ToValueColumn(MakeUniformColumn(scale, d, rng))});
  Table t2 = Table::FromColumns(
      Schema({{"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng))});
  JOINEST_CHECK(f.catalog.AddTable("T0", std::move(t0)).ok());
  JOINEST_CHECK(f.catalog.AddTable("T1", std::move(t1)).ok());
  JOINEST_CHECK(f.catalog.AddTable("T2", std::move(t2)).ok());
  f.spec.count_star = true;
  for (const char* name : {"T0", "T1", "T2"}) {
    JOINEST_CHECK(f.spec.AddTable(f.catalog, name).ok());
  }
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{1, 1}, ColumnRef{2, 0}));
  f.spec.predicates.push_back(Predicate::LocalConst(
      ColumnRef{0, 0}, CompareOp::kLt, Value(int64_t{d / 2})));
  f.total_rows = 3 * scale;
  return f;
}

std::unique_ptr<Operator> MakeFlatTree(const Fixture& f,
                                       bool specialize_kernels) {
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(f.spec);
  CompileOptions options;
  options.specialize_kernels = specialize_kernels;
  auto root = CompilePlan(f.catalog, f.spec, *plan, nullptr, nullptr,
                          nullptr, options);
  JOINEST_CHECK(root.ok()) << root.status();
  return std::move(*root);
}

int64_t DrainBatchCount(Operator& op) {
  op.Open();
  RowBatch batch;
  int64_t count = 0;
  while (op.NextBatch(batch)) count += batch.size();
  op.Close();
  return count;
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  std::string out_path = "BENCH_executor.json";
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

  const int64_t scale = smoke ? 20000 : 200000;
  const int repeats = smoke ? 3 : 5;
  std::fprintf(stderr, "building fixture (scale %lld)...\n",
               static_cast<long long>(scale));
  const Fixture f = MakeFixture(scale);

  std::printf("== executor throughput: %lld base rows, %d threads%s ==\n",
              static_cast<long long>(f.total_rows), NumPoolThreads(),
              smoke ? " (smoke)" : "");

  std::vector<ModeResult> results;
  results.push_back(TimeMode("batch_generic", repeats, f.total_rows, [&] {
    const auto tree = MakeFlatTree(f, /*specialize_kernels=*/false);
    return DrainBatchCount(*tree);
  }));
  results.push_back(TimeMode("batch", repeats, f.total_rows, [&] {
    const auto tree = MakeFlatTree(f, /*specialize_kernels=*/true);
    return DrainBatchCount(*tree);
  }));
  // The recorder-on path: same batch drive plus the one QueryRecord capture
  // the service layer performs per executed query. Sequence numbers keep
  // incrementing across runs, exercising ring overwrite like a long-lived
  // server session would.
  FlightRecorder recorder(
      FlightRecorder::Options().set_enabled(true).set_capacity(256));
  results.push_back(TimeMode("batch_recorder", repeats, f.total_rows, [&] {
    const auto tree = MakeFlatTree(f, /*specialize_kernels=*/true);
    const int64_t count = DrainBatchCount(*tree);
    QueryRecord record;
    record.api = QueryRecord::Api::kExecute;
    record.fingerprint = 0x9e3779b97f4a7c15ull;
    record.rule = "LS";
    record.estimated_rows = static_cast<double>(count);
    record.actual_rows = static_cast<double>(count);
    record.q_error = 1.0;
    recorder.Record(std::move(record));
    return count;
  }));
  // Bit-identical results across every mode, or the numbers are noise.
  for (const ModeResult& r : results) {
    JOINEST_CHECK_EQ(r.count, results[0].count)
        << r.mode << " diverges from " << results[0].mode;
  }

  TablePrinter printer({"mode", "wall s", "rows/sec"});
  char buf[64];
  for (const ModeResult& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", r.per_sec);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);

  const auto rate_of = [&results](const std::string& mode) -> double {
    for (const ModeResult& r : results) {
      if (r.mode == mode) return r.per_sec;
    }
    return 0;
  };
  const double kernel_speedup =
      rate_of("batch_generic") > 0 ? rate_of("batch") / rate_of("batch_generic")
                                   : 0;
  std::printf("kernel speedup (batch vs batch_generic): %.2fx\n",
              kernel_speedup);

  // Full runs enforce the executor perf contract; smoke runs only report
  // (20k rows is small enough that scheduler noise dominates).
  if (!smoke && kernel_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: kernel specialization speedup %.2fx < 1.5x\n",
                 kernel_speedup);
    return 1;
  }

  // Publish every number through the metrics registry, then assemble the
  // JSON from a registry read-back. The scrape is the source of truth for
  // the file (one telemetry surface for benches and serving); doubles
  // round-trip through the gauges bit-exactly, so BENCH_executor.json stays
  // byte-compatible with the pre-registry format.
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto mode_gauge = [&registry](const char* name,
                                const std::string& mode) -> Gauge& {
    return registry.GetGauge(name, "bench_executor per-mode result",
                             {{"mode", mode}});
  };
  for (const ModeResult& r : results) {
    mode_gauge("bench_executor_seconds", r.mode).Set(r.seconds);
    mode_gauge("bench_executor_rows_per_sec", r.mode).Set(r.per_sec);
  }
  Gauge& count_gauge = registry.GetGauge(
      "bench_executor_count", "COUNT(*) agreed on by every mode");
  count_gauge.Set(static_cast<double>(results[0].count));
  registry
      .GetGauge("bench_executor_kernel_speedup",
                "batch rows/sec over batch_generic rows/sec")
      .Set(kernel_speedup);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("executor");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("scale");
  json.Int(scale);
  json.Key("total_rows");
  json.Int(f.total_rows);
  json.Key("threads");
  json.Int(NumPoolThreads());
  json.Key("repeats");
  json.Int(repeats);
  json.Key("count");
  json.Int(static_cast<int64_t>(count_gauge.Value()));
  json.Key("kernel_speedup");
  json.Number(kernel_speedup);
  json.Key("modes");
  json.BeginArray();
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("seconds");
    json.Number(mode_gauge("bench_executor_seconds", r.mode).Value());
    json.Key("rows_per_sec");
    json.Number(mode_gauge("bench_executor_rows_per_sec", r.mode).Value());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
