// The traced run's direct path. Instead of going through the Session
// facade, it calls each module's public entry point itself, in the
// facade's order (ParseQuery → QuerySpecFingerprint →
// ComputeTransitiveClosure → AnalyzedQuery::Create → OptimizeQuery →
// RunPredicateTransfer → CompilePlan / ExecutePlan, and AnalyzeTable /
// BuildSketchProfile on the write path), each inside a bench-side Span
// named "<module>.<call>". The library's own spans nest under them, which
// is what lets AttributeSelfTime split a call's time between modules.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "storage/analyze.h"
#include "storage/catalog.h"

namespace perfbench {

// Span names of the bench-side layer calls.
inline constexpr const char* kParse = "query.parse";
inline constexpr const char* kFingerprint = "service.fingerprint";
inline constexpr const char* kPrepare = "service.prepare";
inline constexpr const char* kClosure = "rewrite.closure";
inline constexpr const char* kAnalyze = "estimator.analyze";
inline constexpr const char* kOptimize = "optimizer.optimize";
inline constexpr const char* kTransfer = "pt.transfer";
inline constexpr const char* kCompile = "executor.compile";
inline constexpr const char* kExecute = "executor.execute";
inline constexpr const char* kAnalyzeTable = "storage.analyze_table";
inline constexpr const char* kBuildProfile = "sketch.build_profile";

// Work counters the direct path collects from what the modules return.
struct LayerWork {
  int64_t closures = 0;
  int64_t implied_predicates = 0;
  int64_t pt_probed = 0;
  int64_t pt_passed = 0;
  int64_t pt_rows_pruned = 0;
  int64_t pt_rows_raw = 0;
  int64_t executes = 0;
  int64_t intermediate_rows = 0;
  int64_t output_rows = 0;
  int64_t operators = 0;
  int64_t kernels_specialized = 0;
};

struct DirectOptions {
  joinest::OptimizerOptions optimizer;
  bool predicate_transfer = false;
  // Self-test only: busy-wait this long inside the optimizer call.
  double optimizer_delay_seconds = 0;
};

// Which facade calls one direct-path run mirrors.
struct DirectCalls {
  bool estimate = false;
  bool optimize = false;
  bool execute = false;
};

// Runs the direct path for `sql`. Returns the wall-clock seconds of the
// layer calls the facade also makes (parse, fingerprint, analysis,
// optimization, transfer, execution); the standalone closure and compile
// calls are nested inside analysis and execution there, so they are
// timed but left out of that sum. With calls.execute, the COUNT(*) must
// equal `truth`.
joinest::StatusOr<double> RunDirect(const joinest::Catalog& catalog,
                                    const std::string& sql,
                                    const DirectCalls& calls,
                                    const DirectOptions& options,
                                    int64_t truth, LayerWork& work);

// The write path on one table: storage ANALYZE and the sketch scan core.
joinest::Status RunWritePath(const joinest::Table& table,
                             const joinest::AnalyzeOptions& options);

struct SelfTime {
  int64_t calls = 0;
  double seconds = 0;
};

// Per bench-side span name: the calls' durations minus the time their
// descendants spent in another module. A library span's module is the
// prefix of its name before "::" when that names a module (query,
// rewrite, estimator); other library spans (operators, pool tasks) belong
// to the module of the span enclosing them.
std::map<std::string, SelfTime> AttributeSelfTime(
    const std::vector<joinest::TraceSession::Event>& events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
