// EXPLAIN ANALYZE on the paper's §8 experiment query:
//
//   SELECT COUNT(*) FROM S, M, B, G
//   WHERE S.s = M.m AND M.m = B.b AND B.b = G.g AND S.s < 100
//
// whose true result size is exactly 100·scale by construction. The report
// shows the executed operator tree with estimated vs. actual cardinalities
// and self/inclusive timings, the per-rule (LS/M/SS) estimate and q-error at
// every join level, and the span-timing summary of the traced run. The
// example owns the trace: it activates a TraceSession around the call, and
// ExplainAnalyze summarises the spans of its own run from that session.
//
// Runs through the service facade: a Database holds the dataset snapshot
// and a Session drives ExplainAnalyze, so the optimized plan is memoised
// in the service cache (visible in --metrics as service_cache_*).
//
// Flags:
//   --json          print the report as JSON instead of text
//   --trace PATH    write the session's Chrome trace-event JSON to PATH
//                   (load in chrome://tracing, validate with
//                   tools/check_trace.py)
//   --metrics       also print the metrics registry's Prometheus text
//                   (the estimator_qerror{rule=...} histograms)
//   --querylog PATH write the flight-recorder querylog as NDJSON to PATH
//                   (validate with tools/check_querylog.py)
//   --scale N       paper dataset scale factor (default 1)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/json_writer.h"
#include "joinest/joinest.h"
#include "obs/trace.h"

using namespace joinest;  // NOLINT - example code

int main(int argc, char** argv) {
  bool as_json = false;
  bool with_metrics = false;
  std::string trace_path;
  std::string querylog_path;
  int64_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      with_metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--querylog") == 0 && i + 1 < argc) {
      querylog_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--metrics] [--trace PATH] "
                   "[--querylog PATH] [--scale N]\n",
                   argv[0]);
      return 2;
    }
  }

  // A failed contract anywhere below dumps the active trace before
  // aborting — the post-mortem story the trace buffer exists for.
  InstallCheckFailureTraceDump();

  // Flight recorder on at sample rate 1 so --querylog has the full history
  // (paper-faithful output is unaffected: capture happens after the run).
  Database db{Database::Options().set_recorder(
      FlightRecorder::Options().set_enabled(true))};
  {
    Catalog staged;
    PaperDatasetOptions dataset;
    dataset.scale = scale;
    Status status = BuildPaperDataset(staged, dataset);
    JOINEST_CHECK(status.ok()) << status;
    status = db.ImportTables(std::move(staged));
    JOINEST_CHECK(status.ok()) << status;
  }

  auto session = db.CreateSession(
      Session::Options().set_preset(AlgorithmPreset::kELS));
  JOINEST_CHECK(session.ok()) << session.status();

  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND "
                "M.m = B.b AND B.b = G.g AND S.s < %lld",
                static_cast<long long>(100 * scale));
  TraceSession trace;
  trace.Activate();
  auto report = session->ExplainAnalyze(sql);
  trace.Deactivate();
  JOINEST_CHECK(report.ok()) << report.status();

  if (as_json) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("%s", report->FormatText().c_str());
  }
  if (!trace_path.empty()) {
    JOINEST_CHECK(WriteTextFile(trace_path, trace.ToChromeTraceJson()))
        << "cannot write " << trace_path;
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }
  if (!querylog_path.empty()) {
    JOINEST_CHECK(WriteTextFile(querylog_path, db.QueryLogNdjson()))
        << "cannot write " << querylog_path;
    std::fprintf(stderr, "querylog written to %s\n", querylog_path.c_str());
  }
  if (with_metrics) {
    std::printf("%s", MetricsRegistry::Global().PrometheusText().c_str());
  }
  return 0;
}
