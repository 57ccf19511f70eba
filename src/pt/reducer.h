// Predicate-transfer reducer: executes a PtDag schedule over the base
// tables and produces per-table row-id selections for the executor.
//
// The reducer works columnar-ly, outside the operator tree: per table it
// first applies the CLOSED local predicate set (sound — closure only adds
// implied predicates; it also guarantees that same-table members of a class
// are equal on surviving rows, so one member column per class suffices for
// filter build/probe), then walks the schedule, probing and rebuilding
// per-class Bloom filters. Large builds are morsel-parallel: each worker
// fills a private filter over a slice of the surviving rows and the slices
// are OR-merged — bit-identical to a serial build, since the final bit set
// is order-independent.
//
// The output selections feed ExecutePlan/CompilePlan (SelectionScan swaps
// in for SeqScan); pass-rate observations feed the metrics registry
// (`pt_pass_rate{table,column}`) and, via RecordRuntimeSelectivities, the
// estimator's RuntimeSelectivityStore.

#ifndef JOINEST_PT_REDUCER_H_
#define JOINEST_PT_REDUCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimator/runtime_selectivity.h"
#include "executor/scan_ops.h"
#include "pt/pt_dag.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct PtOptions {
  // Publish pass-rate gauges and prune counters to the global registry.
  bool publish_metrics = true;
  // Surviving-row count above which a filter build is morsel-parallel.
  int64_t parallel_build_threshold = 1 << 16;

  Status Validate() const;
};

// One executed probe of the schedule.
struct PtFilterStats {
  int table = -1;  // Query-local table index.
  std::string table_name;  // Catalog name (stable across queries).
  int column = -1;
  std::string column_name;
  bool forward = true;
  int64_t probed = 0;
  int64_t passed = 0;
  // passed / probed (1 when nothing was probed).
  double pass_rate = 1.0;
};

// Per-table reduction summary.
struct PtTableStats {
  int table = -1;
  std::string table_name;
  int64_t raw_rows = 0;
  // Rows surviving the table's (closed) local predicates — the baseline
  // the survival fraction is measured against.
  int64_t post_local_rows = 0;
  int64_t final_rows = 0;
  // final_rows / post_local_rows (1 when post_local_rows == 0).
  double survival = 1.0;
  // True when a row-id selection was attached for this table.
  bool selected = false;
};

struct PtResult {
  ScanSelections selections;
  std::vector<PtFilterStats> filters;
  std::vector<PtTableStats> tables;
  double seconds = 0;

  // Total rows pruned from scans, relative to full table scans.
  int64_t rows_pruned() const;
};

// Runs the two-pass reduction for `spec` over the catalog's tables.
// Queries with fewer than two tables (or no multi-table equivalence class)
// return an empty-selection result — nothing to transfer.
StatusOr<PtResult> RunPredicateTransfer(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const PtOptions& options = {});

// Publishes the observed rates into `store`: per (table, column) the
// product of that column's probe pass rates, per table the survival
// fraction.
void RecordRuntimeSelectivities(const PtResult& result,
                                RuntimeSelectivityStore& store);

}  // namespace joinest

#endif  // JOINEST_PT_REDUCER_H_
