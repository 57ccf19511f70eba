#include "executor/parallel.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "executor/eval.h"
#include "obs/metrics.h"
#include "obs/pool_obs.h"
#include "obs/trace.h"
#include "executor/execute.h"
#include "executor/hash_table.h"
#include "storage/table.h"

namespace joinest {

namespace {

// Local predicates of one table resolved to column positions, evaluated
// against a bare table row.
struct LocalFilter {
  std::vector<Predicate> predicates;
  std::vector<int> left_pos;
  std::vector<int> right_pos;

  void Add(const Predicate& p) {
    predicates.push_back(p);
    left_pos.push_back(p.left.column);
    right_pos.push_back(
        p.kind == Predicate::Kind::kLocalColCol ? p.right.column : -1);
  }
  bool Passes(const Row& row) const {
    return EvalPredicatesRow(row, predicates, left_pos, right_pos);
  }
};

// One build side of the left-deep pipeline.
struct Level {
  std::unique_ptr<JoinHashTable> table;
  // Key columns within the combined prefix row, parallel to the build keys.
  std::vector<int> probe_positions;
  // Where this table's columns start in the combined row.
  int col_offset = 0;
  // Columns of this table that deeper levels' keys read — the only values
  // the DFS copies into the combined row.
  std::vector<int> copy_cols;
};

// Filtered rows of one row range of a base table (all columns), appended to
// `out`.
void FilterRangeInto(const Table& table, const LocalFilter& filter,
                     RowRange range, std::vector<Row>& out) {
  Row row;
  for (int64_t r = range.begin; r < range.end; ++r) {
    table.CopyRowInto(r, row);
    if (filter.Passes(row)) out.push_back(row);
  }
}

// Filtered rows of a base table, chunk-parallel on the pool: each morsel
// filters into a private vector and the chunks concatenate in morsel order,
// so the row order — and hence the hash table built from it — is identical
// to a serial scan.
std::vector<Row> FilteredRows(const Table& table, const LocalFilter& filter,
                              ThreadPool& pool) {
  const std::vector<RowRange> morsels = table.Morsels(kMorselRows);
  if (morsels.size() <= 1 || pool.num_workers() == 0) {
    std::vector<Row> rows;
    FilterRangeInto(table, filter, RowRange{0, table.num_rows()}, rows);
    return rows;
  }
  std::vector<std::vector<Row>> chunks(morsels.size());
  {
    TaskGroup group(pool);
    for (size_t m = 0; m < morsels.size(); ++m) {
      group.Run([&table, &filter, &morsels, &chunks, m] {
        FilterRangeInto(table, filter, morsels[m], chunks[m]);
      });
    }
  }
  size_t total = 0;
  for (const std::vector<Row>& chunk : chunks) total += chunk.size();
  std::vector<Row> rows;
  rows.reserve(total);
  for (std::vector<Row>& chunk : chunks) {
    for (Row& row : chunk) rows.push_back(std::move(row));
  }
  return rows;
}

// Per-worker probe state: the combined row shared across levels plus one
// hash-table scratch per level.
struct Worker {
  Row combined;
  std::vector<JoinHashTable::Scratch> scratch;

  // Counts the join results reachable from the current combined prefix,
  // descending level by level. The deepest level contributes its span size
  // directly — its rows' values feed no further keys.
  int64_t CountFrom(const std::vector<Level>& levels, size_t i) {
    const Level& level = levels[i];
    const JoinHashTable::Span span =
        level.table->Probe(combined, level.probe_positions, scratch[i]);
    if (i + 1 == levels.size()) return static_cast<int64_t>(span.size);
    int64_t count = 0;
    for (uint32_t r : span) {
      const Row& match = level.table->row(r);
      for (int col : level.copy_cols) {
        combined[level.col_offset + col] = match[col];
      }
      count += CountFrom(levels, i + 1);
    }
    return count;
  }
};

}  // namespace

StatusOr<int64_t> ParallelTrueCount(const Catalog& catalog,
                                    const QuerySpec& spec,
                                    const ParallelOptions& options) {
  EnsureThreadPoolMetrics();
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : SharedThreadPool();
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  const int n = spec.num_tables();

  std::vector<LocalFilter> local(n);
  std::vector<Predicate> joins;
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) {
      joins.push_back(p);
    } else {
      local[p.left.table].Add(p);
    }
  }

  const std::vector<int> order = CanonicalJoinOrder(n, joins);

  // Combined-row offsets per order position, indexed by query-local table.
  std::vector<int> offset_of(n, -1);
  int total_width = 0;
  std::vector<const Table*> tables(n);
  for (int i = 0; i < n; ++i) {
    const int t = order[i];
    tables[t] = &catalog.table(spec.tables[t].catalog_id);
    offset_of[t] = total_width;
    total_width += tables[t]->num_columns();
  }

  // Assign each join predicate to the first level whose table completes it,
  // and resolve its key positions (build side: column within the level's
  // table; probe side: position within the combined prefix row).
  std::vector<Level> levels(order.size() > 1 ? order.size() - 1 : 0);
  std::vector<std::vector<int>> build_positions(levels.size());
  std::vector<bool> in_plan(n, false);
  in_plan[order[0]] = true;
  std::vector<bool> join_used(joins.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    const int t = order[i];
    Level& level = levels[i - 1];
    level.col_offset = offset_of[t];
    for (size_t j = 0; j < joins.size(); ++j) {
      if (join_used[j]) continue;
      const Predicate& p = joins[j];
      ColumnRef build_ref = p.left;
      ColumnRef probe_ref = p.right;
      if (build_ref.table != t) std::swap(build_ref, probe_ref);
      if (build_ref.table != t || !in_plan[probe_ref.table]) continue;
      join_used[j] = true;
      build_positions[i - 1].push_back(build_ref.column);
      level.probe_positions.push_back(offset_of[probe_ref.table] +
                                      probe_ref.column);
    }
    in_plan[t] = true;
  }

  // Build the hash tables — one pool task per level, each level's filtered
  // scan chunk-parallel in turn (nested submission lands on the worker's
  // own deque, so idle workers steal the chunks). Each table is immutable
  // afterwards and shared read-only by every worker. Keeping the builds off
  // the critical path matters for scaling: a serial build phase would cap
  // parallel efficiency well below the probe phase's.
  {
    Span build_span("ParallelTrueCount::build");
    TaskGroup group(pool);
    for (size_t i = 1; i < order.size(); ++i) {
      const int t = order[i];
      group.Run([&, i, t] {
        levels[i - 1].table = std::make_unique<JoinHashTable>(
            FilteredRows(*tables[t], local[t], pool), build_positions[i - 1]);
      });
    }
  }

  // Which columns each level must publish into the combined row: those its
  // successors' probe keys read.
  auto needed_cols = [&](int table_t, size_t from_level) {
    std::vector<int> cols;
    const int begin = offset_of[table_t];
    const int end = begin + tables[table_t]->num_columns();
    for (size_t j = from_level; j < levels.size(); ++j) {
      for (int pos : levels[j].probe_positions) {
        if (pos >= begin && pos < end) cols.push_back(pos - begin);
      }
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    return cols;
  };
  for (size_t i = 0; i < levels.size(); ++i) {
    levels[i].copy_cols = needed_cols(order[i + 1], i + 1);
  }

  // Outer side: morsels over the first table's row ranges.
  const int outer_t = order[0];
  const Table& outer = *tables[outer_t];
  const LocalFilter& outer_filter = local[outer_t];
  const std::vector<int> outer_cols = needed_cols(outer_t, 0);
  const std::vector<RowRange> morsels = outer.Morsels(kMorselRows);

  auto run_worker = [&](int64_t& count_out, std::atomic<size_t>& next) {
    Span worker_span("ParallelTrueCount::worker");
    Worker worker;
    worker.combined.resize(total_width);
    worker.scratch.resize(levels.size());
    Row outer_row;
    int64_t count = 0;
    int64_t morsels_run = 0;
    int64_t morsel_rows = 0;
    for (size_t m = next.fetch_add(1); m < morsels.size();
         m = next.fetch_add(1)) {
      const RowRange range = morsels[m];
      ++morsels_run;
      morsel_rows += range.end - range.begin;
      for (int64_t r = range.begin; r < range.end; ++r) {
        outer.CopyRowInto(r, outer_row);
        if (!outer_filter.Passes(outer_row)) continue;
        if (levels.empty()) {
          ++count;
          continue;
        }
        for (int col : outer_cols) {
          worker.combined[offset_of[outer_t] + col] = outer_row[col];
        }
        count += worker.CountFrom(levels, 0);
      }
    }
    count_out = count;
    worker_span.SetArg("morsels", morsels_run);
    // One registry touch per worker, not per morsel: the counters stay off
    // the scan loop entirely.
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry
        .GetCounter("executor_morsels_total",
                    "Morsels executed by parallel counting workers")
        .Add(morsels_run);
    registry
        .GetCounter("executor_morsel_rows_total",
                    "Outer rows scanned by parallel counting workers")
        .Add(morsel_rows);
  };

  std::atomic<size_t> next_morsel{0};
  const int limit =
      options.max_workers > 0 ? options.max_workers : pool.num_workers() + 1;
  const int workers = std::max(
      1, static_cast<int>(std::min<size_t>(limit, morsels.size())));
  std::vector<int64_t> counts(workers, 0);
  if (workers == 1) {
    run_worker(counts[0], next_morsel);
  } else {
    // Workers 1..n-1 are pool tasks; the caller runs worker 0 inline, then
    // Wait() helps with any task no pool thread has claimed yet — the
    // caller never blocks while countable work remains. Per-worker counts
    // sum at the end; addition commutes, so the total is bit-identical to
    // the single-threaded run whatever the schedule.
    TaskGroup group(pool);
    for (int w = 1; w < workers; ++w) {
      group.Run([&, w] { run_worker(counts[w], next_morsel); });
    }
    run_worker(counts[0], next_morsel);
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return total;
}

}  // namespace joinest
