#include "workloads.h"

#include <algorithm>
#include <utility>

#include "query/query_spec.h"
#include "stats/histogram.h"
#include "workloads/generator.h"

namespace perfbench {

namespace {

using joinest::ColumnRef;
using joinest::CompareOp;
using joinest::GeneratedWorkload;
using joinest::Predicate;
using joinest::QuerySpec;
using joinest::Status;
using joinest::StatusOr;
using joinest::WorkloadOptions;
using Shape = WorkloadOptions::Shape;

constexpr Shape kShapes[] = {Shape::kChain, Shape::kStar, Shape::kClique,
                             Shape::kCycle};

// Distinct per-query generator seeds from the run's seed.
uint64_t QuerySeed(uint64_t seed, int index) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1;
}

int64_t Rows(int64_t rows, bool tiny) {
  return tiny ? std::max<int64_t>(rows / 100, 20) : rows;
}

// SELECT COUNT(*) over `spec`, naming query-local table i as
// names[spec.tables[i].catalog_id]; column names come from `catalog`.
std::string RenderSql(const joinest::Catalog& catalog, const QuerySpec& spec,
                      const std::vector<std::string>& names) {
  auto table_name = [&](int t) {
    return names[static_cast<size_t>(spec.tables[static_cast<size_t>(t)]
                                         .catalog_id)];
  };
  auto column = [&](ColumnRef ref) {
    const int id = spec.tables[static_cast<size_t>(ref.table)].catalog_id;
    return table_name(ref.table) + "." +
           catalog.table(id).schema().column(ref.column).name;
  };
  std::string sql = "SELECT COUNT(*) FROM ";
  for (int t = 0; t < spec.num_tables(); ++t) {
    if (t > 0) sql += ", ";
    sql += table_name(t);
  }
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    const Predicate& p = spec.predicates[i];
    sql += i == 0 ? " WHERE " : " AND ";
    sql += column(p.left);
    sql += " ";
    sql += joinest::CompareOpSymbol(p.op);
    sql += " ";
    sql += p.kind == Predicate::Kind::kLocalConst
               ? std::to_string(p.constant.AsInt64())
               : column(p.right);
  }
  return sql;
}

// Generates one query's tables, moves them into `out` as <prefix>_t<i>, and
// appends the query.
Status AddQuery(const std::string& prefix, const WorkloadOptions& options,
                WorkloadData& out) {
  JOINEST_ASSIGN_OR_RETURN(GeneratedWorkload w,
                           joinest::GenerateWorkload(options));
  std::vector<std::string> names;
  for (int t = 0; t < w.catalog.num_tables(); ++t) {
    names.push_back(prefix + "_t" + std::to_string(t));
    JOINEST_ASSIGN_OR_RETURN(
        [[maybe_unused]] int id,
        out.catalog.AddSharedTable(names.back(), w.catalog.table_ptr(t),
                                   w.catalog.stats(t)));
  }
  out.queries.push_back(BenchQuery{RenderSql(w.catalog, w.spec, names),
                                   w.spec.num_tables()});
  return Status::OK();
}

// Single-class options: every table joins on one equivalence class, each
// of `rows` rows. Balanced columns hold every value twice; Zipf columns
// draw `rows` values over `rows` distinct ones, skewed by `theta`. Fixed
// sizes leave only the sampled values to vary with the seed.
WorkloadOptions SingleClass(Shape shape, int tables, bool zipf, double theta,
                            int64_t rows, uint64_t seed) {
  WorkloadOptions o;
  o.shape = shape;
  o.num_tables = tables;
  o.single_class = true;
  o.add_local_predicate = true;
  o.min_rows = o.max_rows = rows;
  o.balanced = !zipf;
  o.zipf_theta = zipf ? theta : 0.0;
  o.min_distinct = o.max_distinct =
      zipf ? rows : std::max<int64_t>(1, rows / 2);
  o.seed = seed;
  return o;
}

// plan: 4 shapes x 4..10 tables x {balanced, Zipf 0.3} x 4 replicas = 224
// queries over tables of 150 rows. Planning cost depends on shape and
// table count, not on row counts, so the tables stay small enough that the
// execute share stays small too. The side phase executes the balanced
// queries of at most this many tables: Execute cost doubles with every
// table, so with all sizes the 10-table queries took half the side phase
// and execute_p90_ms rested on those sixteen alone.
constexpr int kPlanExecutedTables = 7;

Status GeneratePlan(uint64_t seed, bool tiny, WorkloadData& out) {
  int index = 0;
  for (int replica = 0; replica < 4; ++replica) {
    for (Shape shape : kShapes) {
      for (int n = 4; n <= 10; ++n) {
        for (bool zipf : {false, true}) {
          JOINEST_RETURN_IF_ERROR(AddQuery(
              "p" + std::to_string(index),
              SingleClass(shape, n, zipf, 0.3, Rows(150, tiny),
                          QuerySeed(seed, index)),
              out));
          out.queries.back().executed = !zipf && n <= kPlanExecutedTables;
          ++index;
        }
      }
    }
  }
  return Status::OK();
}

// scan_join: one foreign-key chain of 10 tables of 80k-100k rows; the
// queries are its 15 contiguous sub-chains of 3-4 tables, each with a
// local predicate keeping 5% or 20% of its last table. Every row of a
// table matches exactly one row of the next, so outputs stay small. With
// the predicate at the end, predicate transfer's forward pass builds its
// Bloom filters from whole tables (above PtOptions'
// parallel_build_threshold, so on the shared pool) and the backward pass
// carries the predicate back down the chain. Each query gets its own table
// names over the shared payloads: like separately generated catalogs, no
// two queries share a table, at the memory cost of one chain. Chains stop
// at 4 tables because of the predicate-transfer feedback defect described
// in README.md.
Status GenerateScanJoin(uint64_t seed, bool tiny, WorkloadData& out) {
  constexpr int kChainTables = 10;
  WorkloadOptions o;
  o.shape = Shape::kChain;
  o.num_tables = kChainTables;
  o.single_class = false;
  o.min_rows = Rows(80000, tiny);
  o.max_rows = Rows(100000, tiny);
  o.seed = QuerySeed(seed, 0);
  JOINEST_ASSIGN_OR_RETURN(GeneratedWorkload w, joinest::GenerateWorkload(o));
  int index = 0;
  for (int len = 3; len <= 4; ++len) {
    for (int first = 0; first + len <= kChainTables; ++first) {
      std::vector<std::string> names(kChainTables);
      QuerySpec spec;
      spec.count_star = true;
      for (int t = first; t < first + len; ++t) {
        names[static_cast<size_t>(t)] =
            "sj" + std::to_string(index) + "_t" + std::to_string(t - first);
        JOINEST_ASSIGN_OR_RETURN(
            [[maybe_unused]] int id,
            out.catalog.AddSharedTable(names[static_cast<size_t>(t)],
                                       w.catalog.table_ptr(t),
                                       w.catalog.stats(t)));
        JOINEST_ASSIGN_OR_RETURN(
            [[maybe_unused]] int local,
            spec.AddTable(w.catalog, "T" + std::to_string(t)));
      }
      for (int t = 0; t + 1 < len; ++t) {
        spec.predicates.push_back(
            Predicate::Join(ColumnRef{t, 1}, ColumnRef{t + 1, 0}));
      }
      const double keep = index % 2 == 0 ? 0.05 : 0.20;
      const int last = first + len - 1;
      const auto bound = static_cast<int64_t>(
          keep * static_cast<double>(w.catalog.table(last).num_rows()));
      spec.predicates.push_back(Predicate::LocalConst(
          ColumnRef{len - 1, 0}, CompareOp::kLt, joinest::Value(bound)));
      JOINEST_RETURN_IF_ERROR(spec.Validate(w.catalog));
      out.queries.push_back(
          BenchQuery{RenderSql(w.catalog, spec, names), len});
      ++index;
    }
  }
  return Status::OK();
}

// serve: 4 shapes x 3..6 tables x {balanced, Zipf 0.3} x 2 replicas = 64
// queries over tables of 500 rows, so an Execute costs about a millisecond.
Status GenerateServe(uint64_t seed, bool tiny, WorkloadData& out) {
  int index = 0;
  for (int replica = 0; replica < 2; ++replica) {
    for (Shape shape : kShapes) {
      for (int n = 3; n <= 6; ++n) {
        for (bool zipf : {false, true}) {
          JOINEST_RETURN_IF_ERROR(AddQuery(
              "s" + std::to_string(index),
              SingleClass(shape, n, zipf, 0.3, Rows(500, tiny),
                          QuerySeed(seed, index)),
              out));
          ++index;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

bool ParseKind(const std::string& name, Kind* kind) {
  static const std::pair<const char*, Kind> kNames[] = {
      {"plan", Kind::kPlan},
      {"scan_join", Kind::kScanJoin},
      {"serve", Kind::kServe}};
  for (const auto& [n, k] : kNames) {
    if (name == n) {
      *kind = k;
      return true;
    }
  }
  return false;
}

StatusOr<WorkloadData> Generate(Kind kind, uint64_t seed, bool tiny) {
  WorkloadData out;
  switch (kind) {
    case Kind::kPlan:
      JOINEST_RETURN_IF_ERROR(GeneratePlan(seed, tiny, out));
      break;
    case Kind::kScanJoin:
      JOINEST_RETURN_IF_ERROR(GenerateScanJoin(seed, tiny, out));
      break;
    case Kind::kServe:
      JOINEST_RETURN_IF_ERROR(GenerateServe(seed, tiny, out));
      break;
  }
  return out;
}

}  // namespace perfbench
