// Brute-force reference for query results: nested loops over the base
// tables in query order, each predicate checked once every table it touches
// is bound. It shares no code with the executor, so it is the differential
// oracle the join methods, the kernels and the parallel counter are checked
// against. Cost grows with the product of table sizes; keep inputs small.

#ifndef JOINEST_TESTS_REFERENCE_JOIN_H_
#define JOINEST_TESTS_REFERENCE_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct ReferenceResult {
  int64_t rows = 0;
  uint64_t checksum = 0;  // Order-independent sum of CanonicalRowHash.
};

inline uint64_t MixValueHash(uint64_t h, const Value& v) {
  h ^= static_cast<uint64_t>(v.Hash()) + 0x9e3779b97f4a7c15ull + (h << 6);
  return h * 0xff51afd7ed558ccdull;
}

// Positions of `layout` sorted by (table, column): the column order the
// reference hashes in, so a row hashes alike whatever the join order.
inline std::vector<int> CanonicalOrder(const std::vector<ColumnRef>& layout) {
  std::vector<int> order(layout.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&layout](int a, int b) { return layout[a] < layout[b]; });
  return order;
}

inline uint64_t CanonicalRowHash(const std::vector<Value>& row,
                                 const std::vector<int>& order) {
  uint64_t h = 0;
  for (int pos : order) h = MixValueHash(h, row[pos]);
  return h;
}

inline bool ReferenceCompare(const Value& a, CompareOp op, const Value& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return !(a == b);
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kGe:
      return b <= a;
  }
  return false;
}

// Every combination of base-table rows that satisfies all of `spec`'s
// predicates, as a row count and a checksum over all columns.
inline ReferenceResult BruteForceJoin(const Catalog& catalog,
                                      const QuerySpec& spec) {
  const int n = spec.num_tables();
  std::vector<const Table*> tables;
  for (const TableRef& ref : spec.tables) {
    tables.push_back(&catalog.table(ref.catalog_id));
  }
  std::vector<std::vector<const Predicate*>> checked_at(n);
  for (const Predicate& p : spec.predicates) {
    const bool has_right = p.kind != Predicate::Kind::kLocalConst;
    checked_at[has_right ? std::max(p.left.table, p.right.table)
                         : p.left.table]
        .push_back(&p);
  }
  std::vector<int64_t> bound(n);
  const auto at = [&](ColumnRef c) -> const Value& {
    return tables[c.table]->at(bound[c.table], c.column);
  };
  ReferenceResult result;
  std::function<void(int)> visit = [&](int depth) {
    if (depth == n) {
      uint64_t h = 0;
      for (int t = 0; t < n; ++t) {
        for (int c = 0; c < tables[t]->num_columns(); ++c) {
          h = MixValueHash(h, at(ColumnRef{t, c}));
        }
      }
      ++result.rows;
      result.checksum += h;
      return;
    }
    for (bound[depth] = 0; bound[depth] < tables[depth]->num_rows();
         ++bound[depth]) {
      const bool pass = std::all_of(
          checked_at[depth].begin(), checked_at[depth].end(),
          [&](const Predicate* p) {
            return ReferenceCompare(at(p->left), p->op,
                                    p->kind == Predicate::Kind::kLocalConst
                                        ? p->constant
                                        : at(p->right));
          });
      if (pass) visit(depth + 1);
    }
  };
  visit(0);
  return result;
}

}  // namespace joinest

#endif  // JOINEST_TESTS_REFERENCE_JOIN_H_
