#include "layers.h"

#include <cstring>
#include <unordered_map>

#include "estimator/analyzed_query.h"
#include "executor/compile.h"
#include "executor/execute.h"
#include "measure.h"
#include "pt/reducer.h"
#include "query/parser.h"
#include "rewrite/transitive_closure.h"
#include "service/fingerprint.h"

namespace perfbench {

namespace {

using joinest::Span;
using joinest::StatusOr;
using joinest::TraceSession;

// A layer call: a bench-side span, plus wall-clock added to `sum` when the
// call is one the facade also makes.
class TimedCall {
 public:
  TimedCall(const char* name, double* sum)
      : span_(name), sum_(sum), start_(NowSeconds()) {}
  ~TimedCall() {
    if (sum_ != nullptr) *sum_ += NowSeconds() - start_;
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  Span span_;
  double* sum_;
  double start_;
};

// "query.parse" → "query".
std::string BenchModule(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

// The module a library span belongs to, or "" when it inherits the module
// of its enclosing span.
std::string LibraryModule(const char* name) {
  const char* sep = std::strstr(name, "::");
  if (sep == nullptr) return "";
  const std::string prefix(name, sep);
  if (prefix == "query" || prefix == "rewrite" || prefix == "estimator") {
    return prefix;
  }
  return "";
}

bool IsBenchLayer(const char* name) {
  for (const char* layer : {kParse, kFingerprint, kPrepare, kClosure, kAnalyze,
                            kOptimize, kTransfer, kCompile, kExecute,
                            kAnalyzeTable, kBuildProfile}) {
    if (std::strcmp(name, layer) == 0) return true;
  }
  return false;
}

}  // namespace

StatusOr<double> RunDirect(const joinest::Catalog& catalog,
                           const std::string& sql, const DirectCalls& calls,
                           const DirectOptions& options, int64_t truth,
                           LayerWork& work) {
  double facade_path = 0;
  joinest::QuerySpec spec;
  {
    TimedCall call(kParse, &facade_path);
    JOINEST_ASSIGN_OR_RETURN(spec, joinest::ParseQuery(catalog, sql));
  }
  {
    TimedCall call(kFingerprint, &facade_path);
    const uint64_t fingerprint = joinest::QuerySpecFingerprint(spec);
    if (fingerprint == 0) return joinest::Internal("zero query fingerprint");
  }
  const joinest::EstimationOptions& estimation = options.optimizer.estimation;
  if (calls.estimate) {
    {
      TimedCall call(kClosure, nullptr);
      joinest::ClosureOptions closure_options;
      closure_options.enabled = estimation.transitive_closure;
      const joinest::ClosureResult closure =
          joinest::ComputeTransitiveClosure(spec.predicates, closure_options);
      ++work.closures;
      work.implied_predicates += closure.num_derived;
    }
    TimedCall call(kAnalyze, &facade_path);
    JOINEST_ASSIGN_OR_RETURN(
        joinest::AnalyzedQuery analyzed,
        joinest::AnalyzedQuery::Create(catalog, spec, estimation));
    if (!(analyzed.EstimateFullJoin() >= 0)) {
      return joinest::Internal("negative or NaN estimate for " + sql);
    }
  }
  if (!calls.optimize && !calls.execute) return facade_path;

  joinest::OptimizedPlan plan;
  {
    TimedCall call(kOptimize, &facade_path);
    JOINEST_ASSIGN_OR_RETURN(
        plan, joinest::OptimizeQuery(catalog, spec, options.optimizer));
    if (options.optimizer_delay_seconds > 0) {
      SpinFor(options.optimizer_delay_seconds);
    }
  }
  if (!calls.execute) return facade_path;

  joinest::PtResult transfer;
  const joinest::ScanSelections* selections = nullptr;
  if (options.predicate_transfer) {
    TimedCall call(kTransfer, &facade_path);
    JOINEST_ASSIGN_OR_RETURN(transfer,
                             joinest::RunPredicateTransfer(catalog, spec));
    selections = &transfer.selections;
    for (const joinest::PtFilterStats& f : transfer.filters) {
      work.pt_probed += f.probed;
      work.pt_passed += f.passed;
    }
    for (const joinest::PtTableStats& t : transfer.tables) {
      work.pt_rows_raw += t.raw_rows;
    }
    work.pt_rows_pruned += transfer.rows_pruned();
  }
  {
    TimedCall call(kCompile, nullptr);
    JOINEST_ASSIGN_OR_RETURN(
        [[maybe_unused]] std::unique_ptr<joinest::Operator> root,
        joinest::CompilePlan(catalog, spec, *plan.root, nullptr, nullptr,
                             selections));
  }
  joinest::ExecutionResult result;
  {
    TimedCall call(kExecute, &facade_path);
    JOINEST_ASSIGN_OR_RETURN(
        result, joinest::ExecutePlan(catalog, spec, *plan.root, selections));
  }
  if (result.count != truth) {
    return joinest::Internal("direct ExecutePlan counted " +
                             std::to_string(result.count) + ", truth is " +
                             std::to_string(truth) + " for " + sql);
  }
  ++work.executes;
  work.output_rows += result.count;
  for (const joinest::OperatorStats& op : result.operators) {
    work.intermediate_rows += op.rows;
  }
  work.operators += result.operators_total;
  work.kernels_specialized += result.kernels_specialized;
  return facade_path;
}

joinest::Status RunWritePath(const joinest::Table& table,
                             const joinest::AnalyzeOptions& options) {
  {
    Span span(kAnalyzeTable);
    const joinest::TableStats stats = joinest::AnalyzeTable(table, options);
    if (stats.row_count != static_cast<double>(table.num_rows())) {
      return joinest::Internal("ANALYZE miscounted a table's rows");
    }
  }
  Span span(kBuildProfile);
  joinest::BuildSketchProfile(table, options);
  return joinest::Status::OK();
}

std::map<std::string, SelfTime> AttributeSelfTime(
    const std::vector<TraceSession::Event>& events) {
  std::unordered_map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent_id >= 0) children[events[i].parent_id].push_back(i);
  }
  // Time under `id` spent in modules other than `module`.
  auto foreign = [&](auto&& self, int64_t id,
                     const std::string& module) -> int64_t {
    auto it = children.find(id);
    if (it == children.end()) return 0;
    int64_t ns = 0;
    for (size_t c : it->second) {
      const std::string child_module = LibraryModule(events[c].name);
      if (!child_module.empty() && child_module != module) {
        ns += events[c].duration_ns;
      } else {
        ns += self(self, events[c].id, module);
      }
    }
    return ns;
  };
  std::map<std::string, SelfTime> out;
  for (const TraceSession::Event& e : events) {
    if (e.name == nullptr || !IsBenchLayer(e.name)) continue;
    const int64_t self_ns =
        e.duration_ns - foreign(foreign, e.id, BenchModule(e.name));
    SelfTime& entry = out[e.name];
    ++entry.calls;
    entry.seconds += static_cast<double>(self_ns) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
