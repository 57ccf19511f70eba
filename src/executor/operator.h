// Operator interface: Open / NextBatch / Close.
//
// A row flowing between operators is a flat std::vector<Value>; which query
// column each position holds is described by the operator's layout — a
// vector of ColumnRef in output order. Operators resolve the columns their
// predicates touch to positions once, at construction. Rows move between
// operators a RowBatch (up to ~1024 rows) at a time; every operator
// implements the batch hook natively, and there is no row-at-a-time entry
// point.
//
// The public entry points are non-virtual wrappers that feed
// rows_produced() and accumulate wall-clock into the operator — both
// inclusive (children's wrapper time counted, EXPLAIN ANALYZE style) and
// exclusive (self time, children subtracted via a per-thread parent chain).
// The batch wrapper additionally tracks batch counts and rows so fill
// rates are observable. Subclasses implement the *Impl hooks.

#ifndef JOINEST_EXECUTOR_OPERATOR_H_
#define JOINEST_EXECUTOR_OPERATOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "query/column_ref.h"
#include "types/value.h"

namespace joinest {

// Position of `column` within `layout`, or -1.
int FindInLayout(const std::vector<ColumnRef>& layout, ColumnRef column);

class Operator {
 public:
  virtual ~Operator() = default;

  // Prepares for iteration. May be called again after Close (rescan).
  void Open();
  // Refills `batch` with up to batch.capacity() rows; returns false when
  // the batch comes back empty (input exhausted), and keeps returning false
  // until the next Open. Slots may hold any earlier contents (including
  // moved-from rows): implementations overwrite them in place.
  bool NextBatch(RowBatch& batch);
  void Close();

  const std::vector<ColumnRef>& layout() const { return layout_; }

  // Operator name, cumulative rows produced and cumulative wall-clock, for
  // EXPLAIN ANALYZE-style reporting.
  virtual std::string name() const = 0;
  int64_t rows_produced() const { return rows_produced_; }
  // Inclusive wall-clock: this operator's wrapper time, children included
  // (a parent's NextBatch drives its children inside NextBatchImpl).
  double seconds() const { return seconds_; }
  // Exclusive (self) wall-clock: inclusive time minus the wrapper time of
  // the children driven while this operator was on top. The self times of
  // an operator tree sum to the root's inclusive time.
  double self_seconds() const { return seconds_ - child_seconds_; }

  // Batch-path statistics: NextBatch calls that returned rows, and the
  // rows they returned. fill = batch_rows / (batches * capacity) is the
  // vectorization fill rate.
  int64_t batches() const { return batches_; }
  int64_t batch_rows() const { return batch_rows_; }

  // True when a type-specialized batch kernel was compiled in for this
  // operator (scan/filter/hash-join Specialize succeeded); false for the
  // generic row loop. Feeds the flight recorder's kernel-selection field.
  virtual bool specialized() const { return false; }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextBatchImpl(RowBatch& batch) = 0;
  virtual void CloseImpl() = 0;

  std::vector<ColumnRef> layout_;
  int64_t rows_produced_ = 0;
  double seconds_ = 0;
  double child_seconds_ = 0;
  int64_t batches_ = 0;
  int64_t batch_rows_ = 0;

 private:
  // RAII guard used by the wrappers: accumulates elapsed wall-clock into
  // seconds_, credits it to the parent operator's child_seconds_, and
  // maintains the per-thread parent chain.
  class TimerScope;
};

// Collects per-operator measurements for an operator tree (callers know the
// tree shape). `seconds` is inclusive wall-clock — a parent's time contains
// its children's; `self_seconds` is the operator's own share.
struct OperatorStats {
  std::string name;
  int64_t rows = 0;
  double seconds = 0;
  double self_seconds = 0;
  int64_t batches = 0;
  int64_t batch_rows = 0;
};

// Snapshot helper used by ExecutePlan and EXPLAIN ANALYZE.
OperatorStats SnapshotOperatorStats(const Operator& op);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_OPERATOR_H_
