// Ablation C: impact of the estimation rule on optimizer output at larger
// join counts, and DP vs greedy enumeration cost.
//
// For n-table one-attribute chains (single equivalence class — the regime
// where the rules disagree) with a local predicate on the smallest table,
// we report per configuration: planning time, the plan's estimated final
// size, and the measured execution time of the chosen plan. Every
// configuration must count the same rows for one table count; the binary
// exits 1 when they disagree (ctest: bench_optimizer_smoke).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/table_printer.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "storage/datagen.h"

using namespace joinest;  // NOLINT - binary code

namespace {

struct Workload {
  Catalog catalog;
  QuerySpec spec;
};

// n tables joined on one shared attribute; table sizes grow geometrically
// (mirroring S/M/B/G), domains are nested prefixes, every column is a key.
Workload MakeChain(int n, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  int64_t rows = 500;
  for (int i = 0; i < n; ++i) {
    Table table = Table::FromColumns(
        Schema({{"k" + std::to_string(i), TypeKind::kInt64}}),
        {ToValueColumn(MakeKeyColumn(rows, rng))});
    JOINEST_CHECK(
        w.catalog.AddTable("T" + std::to_string(i), std::move(table)).ok());
    rows = rows * 3 / 2;
  }
  w.spec.count_star = true;
  for (int i = 0; i < n; ++i) {
    JOINEST_CHECK(w.spec.AddTable(w.catalog, "T" + std::to_string(i)).ok());
  }
  for (int i = 0; i + 1 < n; ++i) {
    w.spec.predicates.push_back(
        Predicate::Join(ColumnRef{i, 0}, ColumnRef{i + 1, 0}));
  }
  // Selective predicate on the smallest table's key.
  w.spec.predicates.push_back(Predicate::LocalConst(
      ColumnRef{0, 0}, CompareOp::kLt, Value(int64_t{50})));
  return w;
}

}  // namespace

int main() {
  std::printf("== Ablation C: optimizer behaviour vs estimation rule and "
              "enumerator ==\n\n");
  TablePrinter table({"#tables", "enumerator", "algorithm", "plan (us)",
                      "est final", "exec (ms)", "count"});
  int disagreements = 0;
  for (int n : {4, 6, 8, 10}) {
    Workload w = MakeChain(n, 11 * n);
    int64_t first_count = -1;
    for (const auto enumerator :
         {OptimizerOptions::Enumerator::kDynamicProgramming,
          OptimizerOptions::Enumerator::kGreedy,
          OptimizerOptions::Enumerator::kIterativeImprovement,
          OptimizerOptions::Enumerator::kSimulatedAnnealing}) {
      for (AlgorithmPreset preset :
           {AlgorithmPreset::kSM, AlgorithmPreset::kSSS,
            AlgorithmPreset::kELS}) {
        OptimizerOptions options;
        options.enumerator = enumerator;
        options.estimation = PresetOptions(preset);
        const auto start = std::chrono::steady_clock::now();
        auto plan = OptimizeQuery(w.catalog, w.spec, options);
        const auto end = std::chrono::steady_clock::now();
        JOINEST_CHECK(plan.ok()) << plan.status();
        const double plan_us =
            std::chrono::duration<double, std::micro>(end - start).count();
        auto result = ExecutePlan(w.catalog, w.spec, *plan->root);
        JOINEST_CHECK(result.ok()) << result.status();
        const char* enumerator_name =
            enumerator == OptimizerOptions::Enumerator::kDynamicProgramming
                ? "DP"
            : enumerator == OptimizerOptions::Enumerator::kGreedy ? "greedy"
            : enumerator ==
                    OptimizerOptions::Enumerator::kIterativeImprovement
                ? "II"
                : "SA";
        table.AddRow(
            {FormatNumber(n), enumerator_name,
             PresetName(preset), FormatNumber(std::round(plan_us)),
             FormatNumber(plan->intermediate_estimates.back(), 3),
             FormatNumber(result->seconds * 1e3, 3),
             FormatNumber(static_cast<double>(result->count))});
        if (first_count < 0) first_count = result->count;
        if (result->count != first_count) {
          std::fprintf(stderr,
                       "FAIL: %d tables, %s under %s counted %lld rows, "
                       "the first configuration %lld\n",
                       n, enumerator_name, PresetName(preset),
                       static_cast<long long>(result->count),
                       static_cast<long long>(first_count));
          ++disagreements;
        }
      }
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: every configuration returns the same count (plans\n"
      "are always correct; checked, exit 1 otherwise); SM/SSS estimated finals collapse towards 0 as\n"
      "n grows while ELS stays at the true size; DP planning time grows\n"
      "exponentially in n, greedy stays polynomial; mis-estimates lead\n"
      "SM/SSS to slower chosen plans.\n");
  if (disagreements > 0) {
    std::fprintf(stderr, "%d configuration(s) disagree on the count\n",
                 disagreements);
    return 1;
  }
  return 0;
}
