// perfbench_driver: one run of one joinest benchmark workload.
//
//   perfbench_driver --workload plan|scan_join|serve --seed N
//       --seconds S --trace 0|1 [--out-dir DIR] [--git-rev REV] [--tiny]
//       [--inject-optimizer-delay-us N]
//
// --trace 0 measures the end-to-end metrics through the Database/Session
// facade; --trace 1 measures the per-layer metrics (layers.h). Either way
// it prints the result document (host block, operation counts, every metric
// with its unit and sample count, notes) as one JSON line; run.py derives
// the summary line from it. --tiny shrinks the tables for the self-test;
// --inject-optimizer-delay-us spins inside every timed optimizer call, so
// the self-test can check that the comparison flags a slower layer.
// README.md describes workloads and metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "executor/execute.h"
#include "joinest/joinest.h"
#include "layers.h"
#include "measure.h"
#include "obs/metrics.h"
#include "rewrite/transitive_closure.h"
#include "service/fingerprint.h"
#include "workloads.h"
#include "workloads/metrics.h"

namespace perfbench {
namespace {

using joinest::AlgorithmPreset;
using joinest::Database;
using joinest::EstimatorFeatures;
using joinest::PreparedQuery;
using joinest::Session;
using joinest::Status;
using joinest::StatusOr;
using joinest::TraceSession;

constexpr int kSetupRepeats = 3;
// Most warm-up passes over the executed queries (see WarmUp).
constexpr int kWarmUpPasses = 4;
// plan/scan_join: blocks the main and side phases alternate in.
constexpr int kBlocks = 10;
// serve: one ANALYZE per interval from the writer thread. Each republish
// empties the cache and ages the observation stores, and the feedback
// recorded after it invalidates cached estimates again; at 0.5 s most reads
// between two republishes still hit, so latency medians sit in the warm
// mode, and a run collects enough ANALYZE latencies for a steady median.
constexpr double kAnalyzeInterval = 0.5;
// Two, not three: with three readers beside the writer on a 4-vCPU host the
// warm-path medians spread past their bounds from run to run.
constexpr int kServeReaders = 2;
// serve: share of reader ops that Estimate / Optimize; the rest Execute.
constexpr double kServeEstimateShare = 0.475;
constexpr double kServeOptimizeShare = 0.475;
// serve: every n-th Estimate of a reader is re-checked for bit-identity.
constexpr int kServeCheckEvery = 16;

struct Args {
  Kind kind = Kind::kPlan;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
  std::string git_rev = "unknown";
  double optimizer_delay = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseKind(value, &args->kind)) return false;
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--inject-optimizer-delay-us") {
      args->optimizer_delay = std::atof(value.c_str()) * 1e-6;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

// Which operations a workload's main phase runs, from how many clients, and
// what share of the run goes to the planning phase. serve runs its own mix.
struct RunShape {
  int clients = 1;
  double plan_share = 0;
  bool plan_main = false;
};

RunShape ShapeOf(Kind kind) {
  switch (kind) {
    case Kind::kPlan: {
      const int nproc =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
      return RunShape{std::min(nproc, 2), 0.9, true};
    }
    case Kind::kScanJoin:
      return RunShape{1, 0.1, false};
    case Kind::kServe:
      return RunShape{kServeReaders, 0, false};
  }
  return RunShape{};
}

joinest::AnalyzeOptions SketchAnalyze() {
  joinest::AnalyzeOptions options;
  options.stats_mode = joinest::AnalyzeOptions::StatsMode::kSketch;
  return options;
}

Database::Options DatabaseOptions(Kind kind) {
  Database::Options options;
  if (kind == Kind::kServe) {
    options.set_recorder(joinest::FlightRecorder::Options()
                             .set_enabled(true)
                             .set_capacity(4096)
                             .set_sample_every_n(4)
                             .set_slow_query_seconds(0.005));
  }
  return options;
}

// Cold planning: the cache bypassed, paper-faithful estimation.
Session::Options PlanSession() {
  return Session::Options().set_preset(AlgorithmPreset::kELS).set_use_cache(
      false);
}

// Execution: predicate transfer on; serve adds cardinality feedback.
Session::Options ExecSession(Kind kind, bool use_cache) {
  EstimatorFeatures features;
  features.runtime_selectivities = true;
  features.feedback = kind == Kind::kServe;
  return Session::Options()
      .set_preset(AlgorithmPreset::kELS)
      .set_features(features)
      .set_use_cache(use_cache);
}

// Failed or wrong operations; the first few are kept for the notes.
class Tally {
 public:
  void Attempt(int64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (failures_.size() < 8) failures_.push_back(what);
  }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
  }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

struct Env {
  std::unique_ptr<Database> db;
  std::vector<BenchQuery> queries;
  // Indexes of the queries Execute traffic runs (BenchQuery::executed).
  std::vector<size_t> executed;
  std::vector<std::string> tables;
  // Cold headline (ELS) estimate of each query: every later cold estimate
  // of the same prepared query must reproduce it bit for bit.
  std::vector<double> reference;
};

// Generate, import, ANALYZE every table (sketch statistics), Prepare every
// query. With `write_path`, also runs the traced write path on each table.
StatusOr<Env> SetUp(const Args& args, Samples* analyze, bool write_path) {
  JOINEST_ASSIGN_OR_RETURN(WorkloadData data,
                           Generate(args.kind, args.seed, args.tiny));
  Env env;
  env.queries = std::move(data.queries);
  for (size_t i = 0; i < env.queries.size(); ++i) {
    if (env.queries[i].executed) env.executed.push_back(i);
  }
  for (int t = 0; t < data.catalog.num_tables(); ++t) {
    env.tables.push_back(data.catalog.table_name(t));
    if (write_path) {
      JOINEST_RETURN_IF_ERROR(
          RunWritePath(data.catalog.table(t), SketchAnalyze()));
    }
  }
  JOINEST_ASSIGN_OR_RETURN(env.db, Database::Open(DatabaseOptions(args.kind)));
  JOINEST_RETURN_IF_ERROR(env.db->ImportTables(std::move(data.catalog)));
  for (const std::string& table : env.tables) {
    const double start = NowSeconds();
    JOINEST_RETURN_IF_ERROR(env.db->AnalyzeTable(table, SketchAnalyze()));
    analyze->Add(NowSeconds() - start);
  }
  JOINEST_ASSIGN_OR_RETURN(Session session,
                           env.db->CreateSession(PlanSession()));
  for (const BenchQuery& q : env.queries) {
    JOINEST_RETURN_IF_ERROR(session.Prepare(q.sql).status());
  }
  return env;
}

// Ground truth, outside every timed region. Per query: the exact size of
// each join prefix along the optimizer's order (TruePrefixSizes, i.e.
// TrueResultSize per prefix; the last is the query's count), the q-error
// of the headline estimate at each level, and Execute with predicate
// transfer off, which must reproduce the count (WarmUp checks it with
// transfer on).
Status ComputeTruth(Env& env, Samples* qerrors, Tally& tally) {
  JOINEST_ASSIGN_OR_RETURN(Session reference,
                           env.db->CreateSession(PlanSession()));
  for (BenchQuery& q : env.queries) {
    JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, reference.Prepare(q.sql));
    JOINEST_ASSIGN_OR_RETURN(joinest::EstimateResult estimate,
                             reference.Estimate(prepared));
    env.reference.push_back(estimate.rows());
    JOINEST_ASSIGN_OR_RETURN(joinest::PlannedQuery plan,
                             reference.Optimize(prepared));
    // Prefixes carry the implied predicates, as the optimizer's
    // composites do; without them a star's leaf-only prefix would be a
    // cartesian product. The full query's count is unchanged.
    joinest::QuerySpec closed = prepared.spec;
    closed.predicates =
        joinest::ComputeTransitiveClosure(prepared.spec.predicates).predicates;
    JOINEST_ASSIGN_OR_RETURN(
        std::vector<int64_t> levels,
        joinest::TruePrefixSizes(prepared.snapshot->catalog(), closed,
                                 plan.join_order()));
    if (levels.empty()) return joinest::Internal("no join levels: " + q.sql);
    q.truth = levels.back();
    const std::vector<double>& estimates = plan.intermediate_estimates();
    for (size_t i = 0; i < std::min(levels.size(), estimates.size()); ++i) {
      if (levels[i] > 0) {
        qerrors->Add(joinest::QError(estimates[i],
                                     static_cast<double>(levels[i])));
      }
    }
    if (!q.executed) continue;
    tally.Attempt();
    StatusOr<joinest::ExecuteResult> result = reference.Execute(prepared);
    if (!result.ok()) {
      tally.Fail("set-up Execute: " + result.status().ToString());
    } else if (result->execution.count != q.truth) {
      tally.Fail("set-up Execute counted " +
                 std::to_string(result->execution.count) + ", truth " +
                 std::to_string(q.truth) + ": " + q.sql);
    }
  }
  return Status::OK();
}

// Runs every executed query with predicate transfer on, through a session
// with the timed execution options, until one pass is served entirely from
// the plan cache. The first execution of a query records pass rates in the
// runtime-selectivity store, which re-plans it; timing should see the plan
// the query converges to, not the first-run one, and no cold planning. Each
// query's converged join order is kept so the timed phase can count
// executes that ran another plan. Notes how many passes it took.
Status WarmUp(const Args& args, Env& env, Tally& tally, Report& report) {
  JOINEST_ASSIGN_OR_RETURN(Session exec,
                           env.db->CreateSession(ExecSession(args.kind, true)));
  for (int pass = 1; pass <= kWarmUpPasses; ++pass) {
    bool all_hits = true;
    for (size_t index : env.executed) {
      BenchQuery& q = env.queries[index];
      tally.Attempt();
      JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, exec.Prepare(q.sql));
      StatusOr<joinest::ExecuteResult> result = exec.Execute(prepared);
      if (!result.ok()) {
        tally.Fail("warm-up Execute: " + result.status().ToString());
        continue;
      }
      if (result->execution.count != q.truth) {
        tally.Fail("warm-up Execute counted " +
                   std::to_string(result->execution.count) + ", truth " +
                   std::to_string(q.truth) + ": " + q.sql);
      }
      all_hits = all_hits && result->plan.cache_hit();
      q.order = result->plan.join_order();
    }
    if (all_hits) {
      report.Note("warm-up: every execute hit the plan cache in pass " +
                  std::to_string(pass));
      return Status::OK();
    }
  }
  report.Note("warm-up: executes still missed the plan cache after " +
              std::to_string(kWarmUpPasses) + " passes");
  return Status::OK();
}

// Latencies and completed operations of one phase.
struct Phase {
  Samples estimate;
  Samples optimize;
  Samples execute;
  int64_t ops = 0;
  // Executes whose join order differed from the warmed-up one.
  int64_t replans = 0;
  double seconds = 0;

  void Merge(const Phase& other) {
    estimate.Merge(other.estimate);
    optimize.Merge(other.optimize);
    execute.Merge(other.execute);
    ops += other.ops;
    replans += other.replans;
  }
};

// Runs op(client, phase) in a closed loop on `clients` threads until
// `seconds` have passed; each client starts its next op when the last one
// returns.
Phase ClosedLoop(int clients, double seconds,
                 const std::function<void(int, Phase&)>& op) {
  std::vector<Phase> per_client(static_cast<size_t>(clients));
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Phase& mine = per_client[static_cast<size_t>(c)];
      while (NowSeconds() < deadline) {
        op(c, mine);
        ++mine.ops;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase total;
  for (const Phase& p : per_client) total.Merge(p);
  total.seconds = NowSeconds() - start;
  return total;
}

// Prepare + Estimate + Optimize on a cache-bypassing session. The estimate
// must match the set-up reference bit for bit.
void PlanOp(const Session& session, const Env& env, size_t index,
            double optimizer_delay, Tally& tally, Phase& phase) {
  tally.Attempt();
  const BenchQuery& q = env.queries[index];
  StatusOr<PreparedQuery> prepared = session.Prepare(q.sql);
  if (!prepared.ok()) return tally.Fail(prepared.status().ToString());
  const double t0 = NowSeconds();
  StatusOr<joinest::EstimateResult> estimate = session.Estimate(*prepared);
  const double t1 = NowSeconds();
  if (!estimate.ok()) return tally.Fail(estimate.status().ToString());
  phase.estimate.Add(t1 - t0);
  if (estimate->rows() != env.reference[index]) {
    return tally.Fail("cold estimate differs from the reference: " + q.sql);
  }
  const double t2 = NowSeconds();
  StatusOr<joinest::PlannedQuery> plan = session.Optimize(*prepared);
  if (optimizer_delay > 0) SpinFor(optimizer_delay);
  const double t3 = NowSeconds();
  if (!plan.ok()) return tally.Fail(plan.status().ToString());
  phase.optimize.Add(t3 - t2);
}

// Prepare + Execute; the count must equal the truth.
void ExecOp(const Session& session, const BenchQuery& q, Tally& tally,
            Phase& phase) {
  tally.Attempt();
  StatusOr<PreparedQuery> prepared = session.Prepare(q.sql);
  if (!prepared.ok()) return tally.Fail(prepared.status().ToString());
  const double t0 = NowSeconds();
  StatusOr<joinest::ExecuteResult> result = session.Execute(*prepared);
  const double t1 = NowSeconds();
  if (!result.ok()) return tally.Fail(result.status().ToString());
  if (result->execution.count != q.truth) {
    return tally.Fail("Execute counted " +
                      std::to_string(result->execution.count) + ", truth " +
                      std::to_string(q.truth) + ": " + q.sql);
  }
  phase.execute.Add(t1 - t0);
  if (result->plan.join_order() != q.order) ++phase.replans;
}

bool SameEstimate(const joinest::EstimateResult& a,
                  const joinest::EstimateResult& b) {
  if (a.rows() != b.rows() || a.groups() != b.groups() ||
      a.per_rule().size() != b.per_rule().size()) {
    return false;
  }
  for (size_t i = 0; i < a.per_rule().size(); ++i) {
    if (a.per_rule()[i].rows != b.per_rule()[i].rows) return false;
  }
  return true;
}

// 0..n-1 in a fixed pseudo-random order, the same for every seed.
std::vector<size_t> Shuffled(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  joinest::Rng rng(0x5eed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

// serve's query choice: Zipf(1) over a fixed permutation of the pool, so
// the hot queries mix shapes and sizes and are the same ones for every
// seed.
class ZipfPicker {
 public:
  explicit ZipfPicker(size_t n) : order_(Shuffled(n)) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Pick(double u) const {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<size_t> order_;
  std::vector<double> cdf_;
};

enum class ServeOp { kEstimate, kOptimize, kExecute };

ServeOp PickServeOp(double u) {
  if (u < kServeEstimateShare) return ServeOp::kEstimate;
  if (u < kServeEstimateShare + kServeOptimizeShare) return ServeOp::kOptimize;
  return ServeOp::kExecute;
}

// The sessions of serve's readers: Estimate/Optimize traffic (cache and
// feedback on), Execute traffic (also predicate transfer), and the
// feedback-off pair that re-checks cache hits.
struct ServeSessions {
  Session planning;
  Session execution;
  Session cached;
  Session bypass;

  const Session& For(ServeOp op) const {
    return op == ServeOp::kExecute ? execution : planning;
  }
};

StatusOr<ServeSessions> MakeServeSessions(const Env& env) {
  EstimatorFeatures feedback;
  feedback.feedback = true;
  JOINEST_ASSIGN_OR_RETURN(
      Session planning,
      env.db->CreateSession(Session::Options()
                                .set_preset(AlgorithmPreset::kELS)
                                .set_features(feedback)));
  JOINEST_ASSIGN_OR_RETURN(
      Session execution,
      env.db->CreateSession(ExecSession(Kind::kServe, true)));
  const Session::Options check =
      Session::Options().set_preset(AlgorithmPreset::kELS);
  JOINEST_ASSIGN_OR_RETURN(Session cached, env.db->CreateSession(check));
  JOINEST_ASSIGN_OR_RETURN(
      Session bypass,
      env.db->CreateSession(Session::Options(check).set_use_cache(false)));
  return ServeSessions{planning, execution, cached, bypass};
}

// One serve reader op. Every kServeCheckEvery-th Estimate also compares a
// feedback-off cache hit against a cache-bypassing estimate of the same
// prepared query.
void ServeReaderOp(const ServeSessions& sessions, const Env& env,
                   size_t index, ServeOp op, bool check,
                   double optimizer_delay, Tally& tally, Phase& phase) {
  const BenchQuery& q = env.queries[index];
  if (op == ServeOp::kExecute) {
    return ExecOp(sessions.execution, q, tally, phase);
  }
  tally.Attempt();
  StatusOr<PreparedQuery> prepared = sessions.planning.Prepare(q.sql);
  if (!prepared.ok()) return tally.Fail(prepared.status().ToString());
  const double t0 = NowSeconds();
  if (op == ServeOp::kOptimize) {
    StatusOr<joinest::PlannedQuery> plan =
        sessions.planning.Optimize(*prepared);
    if (optimizer_delay > 0) SpinFor(optimizer_delay);
    const double t1 = NowSeconds();
    if (!plan.ok()) return tally.Fail(plan.status().ToString());
    phase.optimize.Add(t1 - t0);
    return;
  }
  StatusOr<joinest::EstimateResult> estimate =
      sessions.planning.Estimate(*prepared);
  const double t1 = NowSeconds();
  if (!estimate.ok()) return tally.Fail(estimate.status().ToString());
  if (!(estimate->rows() >= 0)) return tally.Fail("bad estimate: " + q.sql);
  phase.estimate.Add(t1 - t0);
  if (!check) return;
  tally.Attempt();
  StatusOr<joinest::EstimateResult> hit = sessions.cached.Estimate(*prepared);
  if (hit.ok() && !hit->cache_hit()) hit = sessions.cached.Estimate(*prepared);
  StatusOr<joinest::EstimateResult> cold = sessions.bypass.Estimate(*prepared);
  if (!hit.ok() || !cold.ok()) {
    return tally.Fail("cache check: " + (!hit.ok() ? hit.status().ToString()
                                                   : cold.status().ToString()));
  }
  if (!SameEstimate(*hit, *cold)) {
    tally.Fail("cache hit differs from the cold estimate: " + q.sql);
  }
}

// serve: kServeReaders closed-loop readers plus a writer that ANALYZEs one
// table per kAnalyzeInterval. Writer latencies go to `analyze`.
Phase ServePhase(const Args& args, const Env& env,
                 const ServeSessions& sessions, double seconds, Tally& tally,
                 Samples* analyze) {
  const ZipfPicker picker(env.queries.size());
  const double deadline = NowSeconds() + seconds;
  std::thread writer([&] {
    double next = NowSeconds() + kAnalyzeInterval;
    for (size_t k = 0;; ++k) {
      const double wait = next - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      if (NowSeconds() >= deadline) break;
      tally.Attempt();
      const double start = NowSeconds();
      const Status status = env.db->AnalyzeTable(
          env.tables[(k * 7919) % env.tables.size()], SketchAnalyze());
      analyze->Add(NowSeconds() - start);
      if (!status.ok()) tally.Fail("ANALYZE: " + status.ToString());
      next += kAnalyzeInterval;
    }
  });
  std::vector<joinest::Rng> rngs;
  std::vector<int64_t> estimates(kServeReaders, 0);
  for (int c = 0; c < kServeReaders; ++c) {
    rngs.emplace_back(args.seed * 1000003 + static_cast<uint64_t>(c));
  }
  Phase phase = ClosedLoop(kServeReaders, seconds, [&](int c, Phase& mine) {
    joinest::Rng& rng = rngs[static_cast<size_t>(c)];
    const size_t index = picker.Pick(rng.NextDouble());
    const ServeOp op = PickServeOp(rng.NextDouble());
    const bool check = op == ServeOp::kEstimate &&
                       ++estimates[static_cast<size_t>(c)] %
                               kServeCheckEvery == 0;
    ServeReaderOp(sessions, env, index, op, check, args.optimizer_delay,
                  tally, mine);
  });
  writer.join();
  return phase;
}

// The workload's main phase through the facade (for serve, its mix).
struct MainPhase {
  Phase phase;
  Phase side;  // The other half of plan/scan_join.
};

StatusOr<MainPhase> RunFacade(const Args& args, const Env& env,
                              double seconds, bool with_side, Tally& tally,
                              Samples* analyze) {
  MainPhase out;
  if (args.kind == Kind::kServe) {
    JOINEST_ASSIGN_OR_RETURN(ServeSessions sessions, MakeServeSessions(env));
    out.phase = ServePhase(args, env, sessions, seconds, tally, analyze);
    return out;
  }
  const RunShape shape = ShapeOf(args.kind);
  JOINEST_ASSIGN_OR_RETURN(Session plan, env.db->CreateSession(PlanSession()));
  JOINEST_ASSIGN_OR_RETURN(Session exec,
                           env.db->CreateSession(ExecSession(args.kind, true)));
  const size_t n = env.queries.size();
  // Round-robin over the pool, continued across blocks.
  std::atomic<size_t> next_plan{0};
  std::atomic<size_t> next_exec{0};
  auto plan_op = [&](int, Phase& p) {
    PlanOp(plan, env, next_plan.fetch_add(1) % n, args.optimizer_delay, tally,
           p);
  };
  auto exec_op = [&](int, Phase& p) {
    const size_t i = next_exec.fetch_add(1) % env.executed.size();
    ExecOp(exec, env.queries[env.executed[i]], tally, p);
  };
  const double plan_seconds = with_side ? seconds * shape.plan_share
                              : shape.plan_main ? seconds
                                                : 0;
  const double exec_seconds = seconds - plan_seconds;
  // With a side phase, the two alternate in kBlocks blocks so that both
  // sample the whole run, not one end of it.
  const int blocks = with_side ? kBlocks : 1;
  Phase planned;
  Phase executed;
  for (int b = 0; b < blocks; ++b) {
    if (plan_seconds > 0) {
      const Phase p = ClosedLoop(shape.clients, plan_seconds / blocks, plan_op);
      planned.Merge(p);
      planned.seconds += p.seconds;
    }
    if (exec_seconds > 0) {
      const Phase p = ClosedLoop(shape.plan_main ? 1 : shape.clients,
                                 exec_seconds / blocks, exec_op);
      executed.Merge(p);
      executed.seconds += p.seconds;
    }
  }
  out.phase = shape.plan_main ? planned : executed;
  out.side = shape.plan_main ? executed : planned;
  return out;
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Percentile(0.5);
}

// --trace 0: set up kSetupRepeats times, check, then time the facade.
Status RunEndToEnd(const Args& args, Report& report, Tally& tally) {
  Samples analyze;
  std::vector<double> setup_seconds;
  Env env;
  for (int r = 0; r < kSetupRepeats; ++r) {
    env = Env{};  // Release the previous database before building the next.
    const double start = NowSeconds();
    JOINEST_ASSIGN_OR_RETURN(env, SetUp(args, &analyze, false));
    setup_seconds.push_back(NowSeconds() - start);
  }
  Samples qerrors;
  JOINEST_RETURN_IF_ERROR(ComputeTruth(env, &qerrors, tally));
  JOINEST_RETURN_IF_ERROR(WarmUp(args, env, tally, report));
  // serve's writer ANALYZE latency, under read traffic, is reported as a
  // note: it grows with what accumulated since the previous republish and
  // spreads too much across runs for a bounded metric.
  Samples serve_analyze;
  JOINEST_ASSIGN_OR_RETURN(
      MainPhase run, RunFacade(args, env, args.seconds, true, tally,
                               &serve_analyze));
  Phase all = run.phase;
  all.Merge(run.side);

  report.Add("setup_s", Median(setup_seconds), "s", kSetupRepeats);
  report.Add("queries_per_s",
             static_cast<double>(run.phase.ops) / run.phase.seconds, "1/s",
             run.phase.ops);
  report.AddPercentile("estimate_p50_us", all.estimate, 0.50, 1e6, "us");
  report.AddPercentile("optimize_p50_us", all.optimize, 0.50, 1e6, "us");
  report.AddPercentile("execute_p50_ms", all.execute, 0.50, 1e3, "ms");
  report.AddPercentile("execute_p90_ms", all.execute, 0.90, 1e3, "ms");
  report.AddPercentile("analyze_p50_ms", analyze, 0.50, 1e3, "ms");
  report.AddPercentile("qerror_p50", qerrors, 0.50, 1.0, "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Note("executes that ran another join order than the warmed-up "
              "plan: " + std::to_string(all.replans) + " of " +
              std::to_string(all.execute.size()));
  if (serve_analyze.size() > 0) {
    report.Note("serve writer AnalyzeTable p50 " +
                std::to_string(serve_analyze.Percentile(0.5) * 1e3) +
                " ms over " + std::to_string(serve_analyze.size()) +
                " calls");
  }
  return Status::OK();
}

// Registry and database counters, read around each traced window.
struct Counters {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_invalidated = 0;
  int64_t publishes = 0;
  int64_t feedback_hits = 0;
  int64_t feedback_misses = 0;
  int64_t offered = 0;
  int64_t captured = 0;
  int64_t pool_tasks = 0;
  int64_t pool_steals = 0;
  int64_t morsels = 0;
};

Counters ReadCounters(const Database& db) {
  joinest::MetricsRegistry& registry = joinest::MetricsRegistry::Global();
  const joinest::ServiceCacheStats cache = db.cache_stats();
  Counters c;
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_invalidated = cache.invalidated;
  c.publishes = static_cast<int64_t>(db.snapshot()->version());
  c.feedback_hits = registry.GetCounter("feedback_hits_total").Value();
  c.feedback_misses = registry.GetCounter("feedback_misses_total").Value();
  c.offered = db.recorder().total_offered();
  c.captured = db.recorder().total_captured();
  c.pool_tasks =
      registry.GetCounter("pool_tasks_total", "", {{"source", "worker"}})
          .Value() +
      registry.GetCounter("pool_tasks_total", "", {{"source", "inline"}})
          .Value();
  c.pool_steals = registry.GetCounter("pool_steals_total").Value();
  c.morsels = registry.GetCounter("executor_morsels_total").Value();
  return c;
}

// total += after - before, field by field.
void AddDelta(const Counters& before, const Counters& after,
              Counters& total) {
  total.cache_hits += after.cache_hits - before.cache_hits;
  total.cache_misses += after.cache_misses - before.cache_misses;
  total.cache_invalidated += after.cache_invalidated - before.cache_invalidated;
  total.publishes += after.publishes - before.publishes;
  total.feedback_hits += after.feedback_hits - before.feedback_hits;
  total.feedback_misses += after.feedback_misses - before.feedback_misses;
  total.offered += after.offered - before.offered;
  total.captured += after.captured - before.captured;
  total.pool_tasks += after.pool_tasks - before.pool_tasks;
  total.pool_steals += after.pool_steals - before.pool_steals;
  total.morsels += after.morsels - before.morsels;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The optimizer options `session`'s facade calls run with. The facade
// injects the database's observation stores per call, so the direct path
// does too (non-owning: the database outlives every direct call), and both
// plan with the same observations.
joinest::OptimizerOptions EffectiveOptimizer(const Session& session,
                                             const Database& db) {
  joinest::OptimizerOptions optimizer = session.options().optimizer();
  joinest::EstimationOptions& estimation = optimizer.estimation;
  if (session.options().predicate_transfer()) {
    estimation.runtime_selectivities =
        std::shared_ptr<const joinest::RuntimeSelectivityStore>(
            std::shared_ptr<void>(), &db.runtime_selectivities());
  }
  if (session.options().feedback()) {
    estimation.feedback.store = std::shared_ptr<const joinest::FeedbackStore>(
        std::shared_ptr<void>(), &db.feedback_store());
    estimation.feedback.fingerprint = &joinest::SubPlanFingerprint;
    estimation.feedback.min_tables =
        session.options().features().feedback_min_tables;
  }
  return optimizer;
}

// One attribution pair: a cold facade op, then the direct path mirroring
// it. Adds to the facade and layer sums only when both ran the same work.
struct Attribution {
  double facade_seconds = 0;
  double layer_seconds = 0;
  int64_t pairs = 0;
  LayerWork work;
};

void AttributionPair(const Args& args, const Env& env, const Session& session,
                     size_t index, ServeOp op, Tally& tally,
                     Attribution& out) {
  const BenchQuery& q = env.queries[index];
  tally.Attempt();
  bool cold = true;
  const double start = NowSeconds();
  {
    joinest::Span facade(op == ServeOp::kExecute ? "facade.execute"
                                                 : "facade.plan");
    StatusOr<PreparedQuery> prepared = [&] {
      joinest::Span span(kPrepare);
      return session.Prepare(q.sql);
    }();
    if (!prepared.ok()) return tally.Fail(prepared.status().ToString());
    if (op == ServeOp::kExecute) {
      StatusOr<joinest::ExecuteResult> r = session.Execute(*prepared);
      if (!r.ok()) return tally.Fail(r.status().ToString());
      if (r->execution.count != q.truth) {
        return tally.Fail("traced Execute counted wrong: " + q.sql);
      }
      cold = !r->plan.cache_hit();
    } else {
      if (op == ServeOp::kEstimate || args.kind != Kind::kServe) {
        StatusOr<joinest::EstimateResult> e = session.Estimate(*prepared);
        if (!e.ok()) return tally.Fail(e.status().ToString());
        cold = !e->cache_hit();
      }
      if (op == ServeOp::kOptimize || args.kind != Kind::kServe) {
        StatusOr<joinest::PlannedQuery> p = session.Optimize(*prepared);
        if (args.optimizer_delay > 0) SpinFor(args.optimizer_delay);
        if (!p.ok()) return tally.Fail(p.status().ToString());
        cold = cold && !p->cache_hit();
      }
    }
  }
  const double facade_seconds = NowSeconds() - start;
  if (!cold) return;

  DirectCalls calls;
  calls.execute = op == ServeOp::kExecute;
  calls.estimate = !calls.execute && (args.kind != Kind::kServe ||
                                      op == ServeOp::kEstimate);
  calls.optimize = !calls.execute && (args.kind != Kind::kServe ||
                                      op == ServeOp::kOptimize);
  DirectOptions options;
  options.optimizer = EffectiveOptimizer(session, *env.db);
  options.predicate_transfer = session.options().predicate_transfer();
  options.optimizer_delay_seconds = args.optimizer_delay;
  tally.Attempt();
  joinest::Span direct("direct");
  const auto snapshot = env.db->snapshot();
  StatusOr<double> layer_seconds = RunDirect(
      snapshot->catalog(), q.sql, calls, options, q.truth, out.work);
  if (!layer_seconds.ok()) return tally.Fail(layer_seconds.status().ToString());
  out.facade_seconds += facade_seconds;
  out.layer_seconds += *layer_seconds;
  ++out.pairs;
}

// --trace 1. Windows, as shares of --seconds:
//   0.6 facade main phase in six alternating segments, untraced and
//       traced → queries_per_s both ways, and the registry/database
//       counter deltas of the traced segments;
//   0.4 attribution pairs, traced → per-layer self times.
Status RunTraced(const Args& args, Report& report, Tally& tally) {
  Samples analyze;
  TraceSession write_trace;
  write_trace.Activate();
  StatusOr<Env> set_up = SetUp(args, &analyze, true);
  write_trace.Deactivate();
  JOINEST_RETURN_IF_ERROR(set_up.status());
  Env env = std::move(*set_up);
  Samples qerrors;
  JOINEST_RETURN_IF_ERROR(ComputeTruth(env, &qerrors, tally));
  JOINEST_RETURN_IF_ERROR(WarmUp(args, env, tally, report));
  // The q-error tail is deterministic per seed but moves 0.1-0.3 across
  // seeds (it rests on the few worst prefixes), so it is a layer figure
  // here rather than a bounded end-to-end one.
  report.AddPercentile("estimator.qerror_p90", qerrors, 0.90, 1.0, "ratio");

  Samples serve_analyze;
  Phase untraced;
  Phase traced;
  Counters counters;
  TraceSession facade_trace;
  for (int segment = 0; segment < 6; ++segment) {
    const bool tracing = segment % 2 == 1;
    const Counters before = ReadCounters(*env.db);
    if (tracing) facade_trace.Activate();
    StatusOr<MainPhase> run =
        RunFacade(args, env, args.seconds * 0.1, false, tally, &serve_analyze);
    if (tracing) facade_trace.Deactivate();
    JOINEST_RETURN_IF_ERROR(run.status());
    Phase& phase = tracing ? traced : untraced;
    phase.ops += run->phase.ops;
    phase.seconds += run->phase.seconds;
    if (tracing) AddDelta(before, ReadCounters(*env.db), counters);
  }

  // Attribution: single client; a small session for the Chrome trace
  // export, then a large one that the self times are computed from. Both
  // outlive every span that could still record into them.
  const RunShape shape = ShapeOf(args.kind);
  JOINEST_ASSIGN_OR_RETURN(Session plan, env.db->CreateSession(PlanSession()));
  JOINEST_ASSIGN_OR_RETURN(
      Session exec, env.db->CreateSession(ExecSession(args.kind, false)));
  JOINEST_ASSIGN_OR_RETURN(ServeSessions serve, MakeServeSessions(env));
  const ZipfPicker picker(env.queries.size());
  const std::vector<size_t> plan_order = Shuffled(env.queries.size());
  const std::vector<size_t> exec_order = Shuffled(env.executed.size());
  joinest::Rng rng(args.seed);
  Attribution attribution;
  TraceSession export_trace;
  TraceSession layer_trace(1 << 18);
  const double deadline = NowSeconds() + args.seconds * 0.4;
  double next_analyze = NowSeconds() + kAnalyzeInterval;
  constexpr int kExportPairs = 4;
  export_trace.Activate();
  for (int64_t i = 0; NowSeconds() < deadline; ++i) {
    if (i == kExportPairs) {
      export_trace.Deactivate();
      layer_trace.Activate();
    }
    if (layer_trace.total_events() >
        static_cast<int64_t>(layer_trace.capacity() * 9 / 10)) {
      break;
    }
    if (args.kind == Kind::kServe) {
      if (NowSeconds() >= next_analyze) {
        tally.Attempt();
        const Status status = env.db->AnalyzeTable(
            env.tables[static_cast<size_t>(i) % env.tables.size()],
            SketchAnalyze());
        if (!status.ok()) tally.Fail("ANALYZE: " + status.ToString());
        next_analyze += kAnalyzeInterval;
      }
      const size_t index = picker.Pick(rng.NextDouble());
      const ServeOp op = PickServeOp(rng.NextDouble());
      AttributionPair(args, env, serve.For(op), index, op, tally,
                      attribution);
      continue;
    }
    // One pair in ten runs the other phase, as in the untraced run. The
    // pools are walked in shuffled order: the window ends wherever the
    // layers' speed puts it, and a partial pass over a pool sorted by shape
    // and size would weight the per-call means towards its first queries.
    const bool main = i % 10 != 9;
    const bool planning = main == shape.plan_main;
    const auto k = static_cast<size_t>(i);
    AttributionPair(
        args, env, planning ? plan : exec,
        planning ? plan_order[k % plan_order.size()]
                 : env.executed[exec_order[k % exec_order.size()]],
        planning ? ServeOp::kEstimate : ServeOp::kExecute, tally,
        attribution);
  }
  export_trace.Deactivate();
  layer_trace.Deactivate();
  if (!joinest::WriteTextFile(args.out_dir + "/trace-" + args.workload + "-" +
                                  std::to_string(args.seed) + ".json",
                              export_trace.ToChromeTraceJson())) {
    tally.Fail("could not write the Chrome trace");
  }
  if (layer_trace.dropped() > 0) {
    report.Note("layer trace dropped " + std::to_string(layer_trace.dropped()) +
                " events; self times are partial");
  }

  std::vector<TraceSession::Event> events = layer_trace.Snapshot();
  const std::vector<TraceSession::Event> writes = write_trace.Snapshot();
  events.insert(events.end(), writes.begin(), writes.end());
  const std::map<std::string, SelfTime> self = AttributeSelfTime(events);
  auto per_call = [&](const char* layer, double scale, const char* unit) {
    auto it = self.find(layer);
    const SelfTime t = it == self.end() ? SelfTime{} : it->second;
    report.Add(std::string(layer) + (std::strcmp(unit, "ms") == 0 ? "_ms"
                                                                  : "_us"),
               Ratio(t.seconds, static_cast<double>(t.calls)) * scale, unit,
               t.calls);
  };
  const LayerWork& w = attribution.work;
  const Counters& c = counters;
  const int64_t cache_lookups = c.cache_hits + c.cache_misses;

  per_call(kParse, 1e6, "us");
  per_call(kClosure, 1e6, "us");
  report.Add("rewrite.implied_predicates",
             Ratio(static_cast<double>(w.implied_predicates),
                   static_cast<double>(w.closures)),
             "count", w.closures);
  per_call(kAnalyze, 1e6, "us");
  report.Add("estimator.feedback_hit_rate",
             Ratio(static_cast<double>(c.feedback_hits),
                   static_cast<double>(c.feedback_hits + c.feedback_misses)),
             "ratio");
  per_call(kOptimize, 1e6, "us");
  per_call(kPrepare, 1e6, "us");
  per_call(kFingerprint, 1e6, "us");
  report.Add("service.cache_hit_rate",
             Ratio(static_cast<double>(c.cache_hits),
                   static_cast<double>(cache_lookups)),
             "ratio", cache_lookups);
  report.Add("service.cache_invalidated",
             static_cast<double>(c.cache_invalidated), "count");
  report.Add("service.publishes", static_cast<double>(c.publishes), "count");
  per_call(kTransfer, 1e3, "ms");
  report.Add("pt.pass_rate",
             Ratio(static_cast<double>(w.pt_passed),
                   static_cast<double>(w.pt_probed)),
             "ratio", w.pt_probed);
  report.Add("pt.rows_pruned_share",
             Ratio(static_cast<double>(w.pt_rows_pruned),
                   static_cast<double>(w.pt_rows_raw)),
             "ratio", w.pt_rows_raw);
  per_call(kCompile, 1e6, "us");
  per_call(kExecute, 1e3, "ms");
  report.Add("executor.intermediate_rows",
             Ratio(static_cast<double>(w.intermediate_rows),
                   static_cast<double>(w.executes)),
             "count", w.executes);
  report.Add("executor.output_per_intermediate",
             Ratio(static_cast<double>(w.output_rows),
                   static_cast<double>(w.intermediate_rows)),
             "ratio", w.executes);
  report.Add("executor.kernel_share",
             Ratio(static_cast<double>(w.kernels_specialized),
                   static_cast<double>(w.operators)),
             "ratio", w.operators);
  report.Add("executor.morsels", static_cast<double>(c.morsels), "count");
  report.Add("pool.tasks", static_cast<double>(c.pool_tasks), "count");
  report.Add("pool.steals", static_cast<double>(c.pool_steals), "count");
  per_call(kAnalyzeTable, 1e3, "ms");
  per_call(kBuildProfile, 1e3, "ms");
  report.Add("obs.recorder_captured_share",
             Ratio(static_cast<double>(c.captured),
                   static_cast<double>(c.offered)),
             "ratio", c.offered);
  report.Add("obs.trace_overhead",
             Ratio(static_cast<double>(untraced.ops), untraced.seconds) /
                     Ratio(static_cast<double>(traced.ops), traced.seconds) -
                 1.0,
             "ratio", traced.ops);
  report.Add("unattributed_share",
             1.0 - Ratio(attribution.layer_seconds,
                         attribution.facade_seconds),
             "ratio", attribution.pairs);
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload plan|scan_join|serve "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--git-rev REV] [--tiny] "
                 "[--inject-optimizer-delay-us N]\n");
    return 2;
  }
  Report report;
  Tally tally;
  const Status status = args.trace ? RunTraced(args, report, tally)
                                   : RunEndToEnd(args, report, tally);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", status.ToString().c_str());
    return 1;
  }
  for (const std::string& failure : tally.failures()) {
    report.Note("failed: " + failure);
  }
  const HostInfo host{args.workload, args.seed, args.git_rev};
  std::printf("%s\n", report.DocumentJson(host, args.trace, tally.attempted(),
                                          tally.failed())
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
