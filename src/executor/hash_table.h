// Flat open-addressing hash table for hash joins.
//
// Replaces the seed's `unordered_map<vector<Value>, vector<Row>>` build:
// one contiguous slot array (linear probing, power-of-two capacity) whose
// slots point at contiguous spans of build-row indices, built in two passes
// (count per key, prefix-sum offsets, scatter). No per-key node or
// per-match vector allocations, and the finished table is immutable.
//
// Two key representations:
//  * fast path — a single join key whose build column is entirely int64:
//    keys pack into uint64, hashes are a multiplicative mix, probes touch
//    one cache line per step. Probe values of double type canonicalise via
//    Value::AsCanonicalInt64 (3.0 probes as 3; a fractional or out-of-range
//    double misses, since it can equal no int64).
//  * generic path — multi-column or string/mixed keys: the canonicalised
//    key vector (Value::CanonicalKey per column) is stored once per
//    distinct key; slots compare a cached 64-bit hash before the value
//    comparison.

#ifndef JOINEST_EXECUTOR_HASH_TABLE_H_
#define JOINEST_EXECUTOR_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "executor/batch.h"
#include "types/value.h"

namespace joinest {

// 64-bit finalizer (splitmix64) — the same mix Value::Hash applies to
// int64, exposed for packed-key hashing.
inline uint64_t HashUint64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class JoinHashTable {
 public:
  // Takes ownership of the build rows. `key_positions` are the key columns'
  // positions within each build row; an empty list builds a degenerate
  // table that matches every probe (the cartesian case).
  JoinHashTable(std::vector<Row> rows, std::vector<int> key_positions);

  // Matches are spans of build-row indices into rows().
  struct Span {
    const uint32_t* data = nullptr;
    size_t size = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
    bool empty() const { return size == 0; }
  };

  // Reusable per-caller probe state; keeps the generic path allocation-free
  // after the first probe. Each concurrent prober owns its own scratch.
  struct Scratch {
    std::vector<Value> key;
  };

  // Build rows matching the key assembled from `probe_row` at
  // `probe_positions` (parallel to the build key_positions).
  Span Probe(const Row& probe_row, const std::vector<int>& probe_positions,
             Scratch& scratch) const;

  // Specialized probe for the int64 fast path, inlined into the kernelized
  // join loop: the probe key is already a native int64 (the kernel proved
  // the probe column's type at compile time), so the canonicalisation and
  // per-row contract checks of Probe() vanish. Valid only when fast_path()
  // is true; bit-identical to Probe() on the same key.
  Span ProbeFastInt64(int64_t key) const {
    size_t slot = HashUint64(static_cast<uint64_t>(key)) & mask_;
    while (fast_slots_[slot].used) {
      if (fast_slots_[slot].key == key) {
        return Span{payload_.data() + fast_slots_[slot].begin,
                    fast_slots_[slot].count};
      }
      slot = (slot + 1) & mask_;
    }
    return Span{};
  }

  // Warms the cache line of `key`'s home slot. The kernelized join calls
  // this for a whole input batch of keys right after the refill, so by the
  // time each key is actually probed its slot is (usually) already in
  // cache — the probe's dependent load chain no longer stalls on memory.
  void PrefetchFastInt64(int64_t key) const {
    __builtin_prefetch(
        &fast_slots_[HashUint64(static_cast<uint64_t>(key)) & mask_]);
  }

  const Row& row(uint32_t index) const { return rows_[index]; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_keys() const { return num_keys_; }
  bool fast_path() const { return fast_path_; }

  // Opt-in for the all-int64 emit kernel: materialises the build rows as
  // one contiguous row-major int64 matrix ordered by payload position, so
  // a probe span's matches occupy consecutive matrix rows and the emit
  // loop walks sequential memory instead of chasing per-row heap blocks.
  // No-op (has_int_payload() stays false) unless every value of every
  // build row is int64. The Row storage is kept — Probe()/row() and the
  // generic paths are unchanged.
  void BuildIntPayload();
  bool has_int_payload() const { return int_width_ >= 0; }
  // Payload position of a span's first match; the i-th match of the span
  // is matrix row PayloadPos(span) + i.
  size_t PayloadPos(const Span& span) const {
    return static_cast<size_t>(span.data - payload_.data());
  }
  const int64_t* int_payload_row(size_t pos) const {
    return int_payload_.data() + pos * static_cast<size_t>(int_width_);
  }

 private:
  struct FastSlot {
    int64_t key = 0;
    uint32_t begin = 0;
    uint32_t count = 0;
    bool used = false;
  };
  struct GenericSlot {
    uint64_t hash = 0;
    int32_t key_index = -1;  // Into keys_; -1 = empty.
    uint32_t begin = 0;
    uint32_t count = 0;
  };

  void BuildFast();
  void BuildGeneric();
  size_t FindFastSlot(int64_t key) const;
  // Slot holding `key` (inserting into keys_ if absent and insert==true);
  // capacity_ if absent and insert==false.
  size_t FindGenericSlot(const std::vector<Value>& key, uint64_t hash) const;

  std::vector<Row> rows_;
  std::vector<int> key_positions_;
  bool fast_path_ = false;
  size_t capacity_ = 0;  // Power of two; 0 for the empty-key table.
  uint64_t mask_ = 0;
  size_t num_keys_ = 0;
  std::vector<FastSlot> fast_slots_;
  std::vector<GenericSlot> generic_slots_;
  std::vector<std::vector<Value>> keys_;  // Generic path: one per distinct.
  std::vector<uint32_t> payload_;         // Row indices grouped by key.
  int int_width_ = -1;                    // -1: no int payload built.
  std::vector<int64_t> int_payload_;      // Row-major, in payload order.
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_HASH_TABLE_H_
