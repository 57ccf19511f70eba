#include "pt/reducer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "executor/eval.h"
#include "obs/metrics.h"
#include "obs/pool_obs.h"
#include "pt/bloom.h"

namespace joinest {

namespace {

// Probe/hash chunk size: one chunk's hash array stays cache-resident.
constexpr int64_t kChunkRows = 4096;

// Smallest filter we bother sizing; below this the power-of-two rounding
// dominates anyway and a tiny filter risks needless false positives when the
// distinct-count statistic undershoots.
constexpr int64_t kMinFilterKeys = 64;

uint64_t HashValueAt(const Table& table, int64_t row, int column) {
  return static_cast<uint64_t>(table.at(row, column).Hash());
}

// Rows of `table` satisfying every closed local predicate on query table
// `table_index`. Sorted ascending by construction.
std::vector<int64_t> LocalAliveRows(const Table& table, int table_index,
                                    const std::vector<Predicate>& predicates) {
  std::vector<const Predicate*> local;
  for (const Predicate& p : predicates) {
    if (p.kind == Predicate::Kind::kJoin) continue;
    if (p.left.table != table_index) continue;
    local.push_back(&p);
  }
  std::vector<int64_t> alive;
  const int64_t rows = table.num_rows();
  alive.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    bool pass = true;
    for (const Predicate* p : local) {
      const Value& left = table.at(r, p->left.column);
      const Value& right = p->kind == Predicate::Kind::kLocalConst
                               ? p->constant
                               : table.at(r, p->right.column);
      if (!EvalCompare(left, p->op, right)) {
        pass = false;
        break;
      }
    }
    if (pass) alive.push_back(r);
  }
  return alive;
}

// Serial filter build over `rows` of `column`.
void BuildFilterSerial(const Table& table, int column,
                       const std::vector<int64_t>& rows,
                       BlockedBloomFilter& filter) {
  for (const int64_t r : rows) filter.Add(HashValueAt(table, r, column));
}

// Morsel-parallel build on the shared pool: slices fill private
// same-geometry filters, then the slices OR-merge into `filter` in fixed
// slice order. Bit-identical to the serial build — the final bit set does
// not depend on insertion order.
void BuildFilterParallel(const Table& table, int column,
                         const std::vector<int64_t>& rows,
                         int64_t expected_keys, BlockedBloomFilter& filter) {
  ThreadPool& pool = SharedThreadPool();
  const int slices = std::max(
      1, std::min(pool.num_workers() + 1,
                  static_cast<int>(rows.size() / static_cast<size_t>(
                                       kChunkRows)) + 1));
  if (slices <= 1) {
    BuildFilterSerial(table, column, rows, filter);
    return;
  }
  // Partials sized with the target's own parameters get identical geometry
  // (the ctor derives the block count deterministically from expected keys
  // and bits per key), which MergeFrom requires.
  std::vector<BlockedBloomFilter> partials;
  partials.reserve(static_cast<size_t>(slices));
  for (int i = 0; i < slices; ++i) {
    partials.emplace_back(expected_keys, filter.bits_per_key());
  }
  const size_t stride = (rows.size() + static_cast<size_t>(slices) - 1) /
                        static_cast<size_t>(slices);
  auto fill = [&table, column, &rows, &partials, stride](int i) {
    const size_t begin = static_cast<size_t>(i) * stride;
    const size_t end = std::min(rows.size(), begin + stride);
    BlockedBloomFilter& partial = partials[static_cast<size_t>(i)];
    for (size_t j = begin; j < end; ++j) {
      partial.Add(HashValueAt(table, rows[j], column));
    }
  };
  {
    TaskGroup group(pool);
    for (int i = 1; i < slices; ++i) {
      group.Run([&fill, i] { fill(i); });
    }
    fill(0);  // The caller is a worker too.
  }
  for (const BlockedBloomFilter& p : partials) {
    const Status merged = filter.MergeFrom(p);
    JOINEST_CHECK(merged.ok()) << merged;
  }
}

// Bits per key from the build side's expected cardinality: a small filter
// is cache-resident anyway, so extra bits are nearly free and cut the
// false-positive rate; a huge filter overflows cache, where fewer bits per
// key keeps more of the probe path resident. Deterministic in `expected`,
// so every build of the same side (serial, parallel, repeated) derives
// identical geometry.
double AdaptiveBitsPerKey(int64_t expected) {
  const double log_keys =
      std::log2(static_cast<double>(std::max<int64_t>(expected, 2)));
  return std::clamp(32.0 - 1.25 * log_keys, 6.0, 18.0);
}

}  // namespace

Status PtOptions::Validate() const {
  if (parallel_build_threshold < 0) {
    return InvalidArgument("pt parallel_build_threshold must be >= 0");
  }
  return Status::OK();
}

int64_t PtResult::rows_pruned() const {
  int64_t pruned = 0;
  for (const PtTableStats& t : tables) {
    if (t.selected) pruned += t.raw_rows - t.final_rows;
  }
  return pruned;
}

StatusOr<PtResult> RunPredicateTransfer(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const PtOptions& options) {
  JOINEST_RETURN_IF_ERROR(options.Validate());
  EnsureThreadPoolMetrics();
  const auto start = std::chrono::steady_clock::now();

  PtResult result;
  result.selections.row_ids.resize(static_cast<size_t>(spec.num_tables()));
  if (spec.num_tables() < 2) return result;

  const PtDag dag = PtDag::Build(spec);
  if (dag.num_builds == 0) return result;  // No multi-table class.

  // Per-table surviving row ids, seeded from the closed local predicates.
  std::vector<std::vector<int64_t>> alive(
      static_cast<size_t>(spec.num_tables()));
  std::vector<int64_t> raw_rows(static_cast<size_t>(spec.num_tables()), 0);
  for (int t = 0; t < spec.num_tables(); ++t) {
    const Table& table = catalog.table(spec.tables[t].catalog_id);
    raw_rows[static_cast<size_t>(t)] = table.num_rows();
    alive[static_cast<size_t>(t)] =
        LocalAliveRows(table, t, dag.closed_predicates);
  }
  std::vector<int64_t> post_local(static_cast<size_t>(spec.num_tables()));
  for (int t = 0; t < spec.num_tables(); ++t) {
    post_local[static_cast<size_t>(t)] =
        static_cast<int64_t>(alive[static_cast<size_t>(t)].size());
  }

  // One filter slot per class, separate arrays per pass direction. A build
  // REPLACES the slot (cascading intersection), so a later probe always sees
  // the most-reduced upstream member.
  std::vector<std::unique_ptr<BlockedBloomFilter>> forward_filters(
      static_cast<size_t>(dag.classes.num_classes()));
  std::vector<std::unique_ptr<BlockedBloomFilter>> backward_filters(
      static_cast<size_t>(dag.classes.num_classes()));

  std::vector<uint64_t> hashes(static_cast<size_t>(kChunkRows));
  std::vector<char> keep(static_cast<size_t>(kChunkRows));

  for (const PtStep& step : dag.steps) {
    if (step.probes.empty() && step.builds.empty()) continue;
    const int t = step.table;
    const Table& table = catalog.table(spec.tables[t].catalog_id);
    auto& filters = step.forward ? forward_filters : backward_filters;
    std::vector<int64_t>& ids = alive[static_cast<size_t>(t)];

    for (const PtColumnFilter& probe : step.probes) {
      const BlockedBloomFilter* filter =
          filters[static_cast<size_t>(probe.class_id)].get();
      // Backward-pass probes at the tail table have no filter yet (the tail
      // is the first builder of the backward pass) — the schedule never
      // emits those, so a missing filter is a schedule bug.
      JOINEST_CHECK(filter != nullptr)
          << "pt probe before build for class " << probe.class_id;
      PtFilterStats stats;
      stats.table = t;
      stats.table_name = catalog.table_name(spec.tables[t].catalog_id);
      stats.column = probe.column;
      stats.column_name = table.schema().column(probe.column).name;
      stats.forward = step.forward;
      stats.probed = static_cast<int64_t>(ids.size());

      size_t out = 0;
      for (size_t base = 0; base < ids.size();
           base += static_cast<size_t>(kChunkRows)) {
        const int count = static_cast<int>(
            std::min(static_cast<size_t>(kChunkRows), ids.size() - base));
        for (int i = 0; i < count; ++i) {
          hashes[static_cast<size_t>(i)] =
              HashValueAt(table, ids[base + static_cast<size_t>(i)],
                          probe.column);
        }
        filter->Probe(hashes.data(), count, keep.data());
        for (int i = 0; i < count; ++i) {
          if (keep[static_cast<size_t>(i)] != 0) {
            ids[out++] = ids[base + static_cast<size_t>(i)];
          }
        }
      }
      ids.resize(out);

      stats.passed = static_cast<int64_t>(out);
      stats.pass_rate = stats.probed > 0 ? static_cast<double>(stats.passed) /
                                               static_cast<double>(stats.probed)
                                         : 1.0;
      result.filters.push_back(std::move(stats));
    }

    for (const PtColumnFilter& build : step.builds) {
      // Size from the smaller of the statistic's distinct count and the live
      // row count — only distinct values occupy bits.
      const TableStats& stats = catalog.stats(spec.tables[t].catalog_id);
      const double stat_distinct =
          build.column < static_cast<int>(stats.columns.size())
              ? stats.column(build.column).distinct_count
              : static_cast<double>(ids.size());
      const int64_t expected = std::max(
          kMinFilterKeys,
          std::min(static_cast<int64_t>(ids.size()),
                   static_cast<int64_t>(std::llround(
                       std::max(1.0, stat_distinct)))));
      auto filter = std::make_unique<BlockedBloomFilter>(
          expected, AdaptiveBitsPerKey(expected));
      if (static_cast<int64_t>(ids.size()) >=
          options.parallel_build_threshold) {
        BuildFilterParallel(table, build.column, ids, expected, *filter);
      } else {
        BuildFilterSerial(table, build.column, ids, *filter);
      }
      filters[static_cast<size_t>(build.class_id)] = std::move(filter);
    }
  }

  // Attach selections where the reduction actually removed rows; a table
  // still at full cardinality keeps its plain SeqScan.
  result.tables.reserve(static_cast<size_t>(spec.num_tables()));
  for (int t = 0; t < spec.num_tables(); ++t) {
    PtTableStats ts;
    ts.table = t;
    ts.table_name = catalog.table_name(spec.tables[t].catalog_id);
    ts.raw_rows = raw_rows[static_cast<size_t>(t)];
    ts.post_local_rows = post_local[static_cast<size_t>(t)];
    ts.final_rows = static_cast<int64_t>(alive[static_cast<size_t>(t)].size());
    ts.survival = ts.post_local_rows > 0
                      ? static_cast<double>(ts.final_rows) /
                            static_cast<double>(ts.post_local_rows)
                      : 1.0;
    if (ts.final_rows < ts.raw_rows) {
      result.selections.row_ids[static_cast<size_t>(t)] =
          std::make_shared<const std::vector<int64_t>>(
              std::move(alive[static_cast<size_t>(t)]));
      ts.selected = true;
    }
    result.tables.push_back(std::move(ts));
  }

  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  if (options.publish_metrics) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("pt_runs", "Predicate-transfer reductions executed")
        .Increment();
    registry
        .GetCounter("pt_rows_pruned",
                    "Rows removed from base scans by predicate transfer")
        .Add(result.rows_pruned());
    for (const PtFilterStats& f : result.filters) {
      registry
          .GetGauge("pt_pass_rate",
                    "Latest Bloom pass rate per probed join column",
                    {{"table", f.table_name},
                     {"column", f.column_name}})
          .Set(f.pass_rate);
    }
  }
  return result;
}

void RecordRuntimeSelectivities(const PtResult& result,
                                RuntimeSelectivityStore& store) {
  // Combined pass rate per (table, column): the product over every probe of
  // that column — the fraction of its post-local distincts/rows with join
  // partners everywhere the class reaches.
  std::map<std::pair<std::string, int>, double> combined;
  for (const PtFilterStats& f : result.filters) {
    auto [it, inserted] =
        combined.emplace(std::make_pair(f.table_name, f.column), f.pass_rate);
    if (!inserted) it->second *= f.pass_rate;
  }
  for (const auto& [key, rate] : combined) {
    store.RecordColumnPassRate(key.first, key.second, rate);
  }
  for (const PtTableStats& t : result.tables) {
    store.RecordTableSurvival(t.table_name, t.survival);
  }
}

}  // namespace joinest
