// Morsel-driven parallel execution of counting queries.
//
// The ground-truth entry points (TrueResultSize / TruePrefixSizes) execute
// a canonical safe plan: left-deep hash joins in greedy-connected table
// order with filters pushed into the scans. For COUNT(*) that plan needs no
// materialised output at all, so this module runs it as a counting pipeline:
//
//   1. build one JoinHashTable per join level from the (filtered) build
//      tables — sequentially, once, immutable afterwards;
//   2. partition the outer scan into row-range morsels (Table::Morsels);
//   3. workers pull morsels off a shared atomic cursor, run each outer row
//      through the probe pipeline (a DFS over the per-level match spans,
//      with the last level short-circuited to `count += span.size`), and
//      accumulate a thread-local count;
//   4. the per-thread counts are summed — addition commutes, so the result
//      is bit-identical to the operator tree's count no matter the schedule.
//
// Work runs on the shared work-stealing pool (common/thread_pool.h) — no
// thread is spawned per query. The level builds fan out as pool tasks too
// (each level's filtered scan is itself chunk-parallel), which keeps the
// serial fraction small enough for the 4-thread efficiency targets.
// Concurrency: JOINEST_THREADS if set (deterministic CI; 1 = fully inline),
// else hardware_concurrency. The caller always counts as one worker.

#ifndef JOINEST_EXECUTOR_PARALLEL_H_
#define JOINEST_EXECUTOR_PARALLEL_H_

#include <cstdint>

#include "common/status.h"
#include "common/thread_pool.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

// Rows per morsel handed to a worker.
inline constexpr int64_t kMorselRows = 4096;

// Knobs for ParallelTrueCount, used by benchmarks to pin the pool and the
// concurrency for scaling sweeps.
struct ParallelOptions {
  // Pool to schedule on; null uses the process-wide SharedThreadPool().
  ThreadPool* pool = nullptr;
  // Cap on concurrent counting workers, including the caller; 0 sizes from
  // the pool (its workers + the caller).
  int max_workers = 0;
};

// Exact COUNT(*) of `spec` (all predicates applied), computed with the
// morsel-parallel counting pipeline over the canonical safe join order.
// Counts match ExecutePlan on the canonical safe plan bit for bit.
StatusOr<int64_t> ParallelTrueCount(const Catalog& catalog,
                                    const QuerySpec& spec,
                                    const ParallelOptions& options = {});

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_PARALLEL_H_
