// The benchmark's inputs: per workload, a catalog of generated tables and a
// pool of COUNT(*) queries rendered to SQL, all derived from one seed.
//
// Tables come from workloads/generator (GenerateWorkload), renamed so that
// every query's tables can live in one database; each generated QuerySpec is
// rendered back to SQL so that every timed call enters through
// Session::Prepare. Only the data values depend on the seed: the pool's
// composition (shapes, table counts, row counts, skew) is fixed per
// workload, which keeps run-to-run spread across seeds small. See README.md
// for why each workload is sized as it is.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"

namespace perfbench {

enum class Kind { kPlan, kScanJoin, kServe };

// "plan", "scan_join", "serve".
bool ParseKind(const std::string& name, Kind* kind);

struct BenchQuery {
  std::string sql;
  int num_tables = 0;
  // Exact COUNT(*), filled in at set-up outside the timed region.
  int64_t truth = -1;
  // Whether the workload's Execute traffic runs it. plan executes only its
  // balanced queries of 4-7 tables: their counts are the same for every
  // seed, where a 10-table Zipf count swings threefold with the sampled
  // values.
  bool executed = true;
  // Join order of the plan the query converged to during warm-up.
  std::vector<int> order;
};

struct WorkloadData {
  // Every table, uniquely named, with the generator's statistics.
  joinest::Catalog catalog;
  std::vector<BenchQuery> queries;
};

// `tiny` divides every table's rows by 100 (self-test size).
joinest::StatusOr<WorkloadData> Generate(Kind kind, uint64_t seed, bool tiny);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
