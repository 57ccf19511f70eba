#include "executor/scan_ops.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "executor/eval.h"

namespace joinest {

SeqScanOperator::SeqScanOperator(const Table& table, int table_index)
    : table_(table) {
  for (int c = 0; c < table.num_columns(); ++c) {
    layout_.push_back(ColumnRef{table_index, c});
  }
}

void SeqScanOperator::Specialize() {
  specialized_ = true;
  CountKernelSelection("scan_columnwise_fill");
}

void SeqScanOperator::OpenImpl() { cursor_ = 0; }

bool SeqScanOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const int64_t take =
      std::min<int64_t>(batch.capacity(), table_.num_rows() - cursor_);
  if (specialized_) {
    FillBatchColumnwise(table_, cursor_, take, batch, slots_);
  } else {
    for (int64_t i = 0; i < take; ++i) {
      table_.CopyRowInto(cursor_ + i, batch.AppendSlot());
    }
  }
  cursor_ += take;
  rows_produced_ += take;
  return !batch.empty();
}

void SeqScanOperator::CloseImpl() {}

SelectionScanOperator::SelectionScanOperator(
    const Table& table, int table_index,
    std::shared_ptr<const std::vector<int64_t>> row_ids)
    : table_(table), row_ids_(std::move(row_ids)) {
  JOINEST_CHECK(row_ids_ != nullptr);
  if (!row_ids_->empty()) {
    JOINEST_CHECK_GE(row_ids_->front(), 0);
    JOINEST_CHECK_LT(row_ids_->back(), table.num_rows());
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    layout_.push_back(ColumnRef{table_index, c});
  }
}

void SelectionScanOperator::OpenImpl() { cursor_ = 0; }

bool SelectionScanOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const size_t take = std::min<size_t>(
      static_cast<size_t>(batch.capacity()), row_ids_->size() - cursor_);
  for (size_t i = 0; i < take; ++i) {
    table_.CopyRowInto((*row_ids_)[cursor_ + i], batch.AppendSlot());
  }
  cursor_ += take;
  rows_produced_ += static_cast<int64_t>(take);
  return !batch.empty();
}

void SelectionScanOperator::CloseImpl() {}

FilterOperator::FilterOperator(std::unique_ptr<Operator> child,
                               std::vector<Predicate> predicates)
    : child_(std::move(child)), predicates_(std::move(predicates)) {
  layout_ = child_->layout();
  for (const Predicate& p : predicates_) {
    JOINEST_CHECK(p.kind != Predicate::Kind::kJoin)
        << "FilterOperator handles local predicates only";
    const int left = FindInLayout(layout_, p.left);
    JOINEST_CHECK_GE(left, 0) << "filter column missing from child layout";
    left_pos_.push_back(left);
    if (p.kind == Predicate::Kind::kLocalColCol) {
      const int right = FindInLayout(layout_, p.right);
      JOINEST_CHECK_GE(right, 0) << "filter column missing from child layout";
      right_pos_.push_back(right);
    } else {
      right_pos_.push_back(-1);
    }
  }
}

void FilterOperator::Specialize(const std::vector<TypeKind>& child_types) {
  std::vector<CompiledPredicate> all;
  CompilePredicates(predicates_, left_pos_, right_pos_, child_types, &all);
  compiled_.clear();
  generic_predicates_.clear();
  generic_left_pos_.clear();
  generic_right_pos_.clear();
  for (size_t i = 0; i < all.size(); ++i) {
    CountKernelSelection(FilterKernelName(all[i].kernel));
    if (all[i].kernel == FilterKernel::kGeneric) {
      generic_predicates_.push_back(predicates_[i]);
      generic_left_pos_.push_back(left_pos_[i]);
      generic_right_pos_.push_back(right_pos_[i]);
    } else {
      compiled_.push_back(std::move(all[i]));
    }
  }
  specialized_ = true;
}

void FilterOperator::OpenImpl() { child_->Open(); }

bool FilterOperator::RowPasses(const Row& row) const {
  return EvalPredicatesRow(row, predicates_, left_pos_, right_pos_);
}

bool FilterOperator::NextBatchImpl(RowBatch& batch) {
  // The filter's layout equals the child's, so the child fills the caller's
  // batch directly and passing rows are compacted in place — no copies.
  while (child_->NextBatch(batch)) {
    int passed = 0;
    if (specialized_) {
      // Kernel path: typed column-at-a-time loops over the specialized
      // predicates, then the generic remainder row-wise over survivors.
      // The conjunction short-circuits per column instead of per row, but
      // the predicates are pure, so the surviving set is bit-identical.
      keep_.assign(batch.size(), 1);
      EvalCompiledPredicates(batch, compiled_, keep_);
      if (!generic_predicates_.empty()) {
        for (int i = 0; i < batch.size(); ++i) {
          if (!keep_[i]) continue;
          keep_[i] = EvalPredicatesRow(batch.row(i), generic_predicates_,
                                       generic_left_pos_, generic_right_pos_)
                         ? 1
                         : 0;
        }
      }
      for (int i = 0; i < batch.size(); ++i) passed += keep_[i];
    } else {
      keep_.resize(batch.size());
      for (int i = 0; i < batch.size(); ++i) {
        keep_[i] = RowPasses(batch.row(i)) ? 1 : 0;
        passed += keep_[i];
      }
    }
    if (passed == 0) continue;  // Fully filtered batch; pull the next one.
    if (passed < batch.size()) batch.Keep(keep_);
    rows_produced_ += batch.size();
    return true;
  }
  batch.Clear();
  return false;
}

void FilterOperator::CloseImpl() { child_->Close(); }

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> child,
                                 std::vector<ColumnRef> columns)
    : child_(std::move(child)) {
  for (ColumnRef ref : columns) {
    const int pos = FindInLayout(child_->layout(), ref);
    JOINEST_CHECK_GE(pos, 0) << "projected column missing from child layout";
    if (std::find(positions_.begin(), positions_.end(), pos) !=
        positions_.end()) {
      has_duplicate_positions_ = true;
    }
    positions_.push_back(pos);
    layout_.push_back(ref);
  }
}

void ProjectOperator::OpenImpl() { child_->Open(); }

bool ProjectOperator::NextBatchImpl(RowBatch& batch) {
  // The child fills the caller's batch; each row is rebuilt in the scratch
  // row and swapped back, so the slots' storage keeps being reused.
  if (!child_->NextBatch(batch)) return false;
  for (int i = 0; i < batch.size(); ++i) {
    Row& row = batch.row(i);
    projected_.clear();
    if (has_duplicate_positions_) {
      // A duplicated projection (SELECT S.a, S.a) must copy: moving would
      // leave the second occurrence a moved-from Value.
      for (int pos : positions_) projected_.push_back(row[pos]);
    } else {
      for (int pos : positions_) projected_.push_back(std::move(row[pos]));
    }
    row.swap(projected_);
  }
  rows_produced_ += batch.size();
  return true;
}

void ProjectOperator::CloseImpl() { child_->Close(); }

CountAggOperator::CountAggOperator(std::unique_ptr<Operator> child)
    : child_(std::move(child)) {
  layout_ = {};  // COUNT(*) has no column identity.
}

void CountAggOperator::OpenImpl() {
  child_->Open();
  done_ = false;
}

bool CountAggOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  if (done_) return false;
  // The caller's batch doubles as the drain buffer; the child leaves it
  // empty once exhausted.
  int64_t count = 0;
  while (child_->NextBatch(batch)) count += batch.size();
  Row& row = batch.AppendSlot();
  row.clear();
  row.push_back(Value(count));
  done_ = true;
  ++rows_produced_;
  return true;
}

void CountAggOperator::CloseImpl() { child_->Close(); }

GroupCountOperator::GroupCountOperator(std::unique_ptr<Operator> child,
                                       std::vector<ColumnRef> group_columns)
    : child_(std::move(child)) {
  JOINEST_CHECK(!group_columns.empty());
  for (ColumnRef ref : group_columns) {
    const int pos = FindInLayout(child_->layout(), ref);
    JOINEST_CHECK_GE(pos, 0) << "group column missing from child layout";
    positions_.push_back(pos);
    layout_.push_back(ref);
  }
  // The trailing COUNT(*) column has no catalog identity.
  layout_.push_back(ColumnRef{-1, -1});
}

void GroupCountOperator::OpenImpl() {
  child_->Open();
  aggregated_ = false;
  results_.clear();
  cursor_ = 0;
}

bool GroupCountOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  if (!aggregated_) {
    struct KeyHash {
      size_t operator()(const Row& key) const {
        size_t h = 0x9e3779b97f4a7c15ull;
        for (const Value& v : key) {
          h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6);
        }
        return h;
      }
    };
    std::unordered_map<Row, int64_t, KeyHash> groups;
    Row key;
    // The caller's batch doubles as the drain buffer; the child leaves it
    // empty once exhausted.
    while (child_->NextBatch(batch)) {
      for (int i = 0; i < batch.size(); ++i) {
        const Row& input = batch.row(i);
        key.clear();
        key.reserve(positions_.size());
        for (int pos : positions_) key.push_back(input[pos]);
        ++groups[key];
      }
    }
    results_.reserve(groups.size());
    for (auto& [group_key, count] : groups) {
      Row out = group_key;
      out.push_back(Value(count));
      results_.push_back(std::move(out));
    }
    aggregated_ = true;
  }
  while (!batch.full() && cursor_ < results_.size()) {
    batch.AppendSlot() = std::move(results_[cursor_++]);
    ++rows_produced_;
  }
  return !batch.empty();
}

void GroupCountOperator::CloseImpl() {
  child_->Close();
  results_.clear();
}

}  // namespace joinest
