// Fixed-budget cache of dequantized embedding rows over the mmap'd table.
//
// The embedding gather dominates the lookup path (MEmCom §5.3), and serving
// traffic is Zipf-skewed: a small set of hot entities accounts for most row
// reads. The cache keeps those rows dequantized in a preallocated slab so a
// hit skips both the page touch and the dequantize work.
//
// Design constraints, in order:
//   * bit-identical logits — a cached row must hold exactly the floats
//     dequantize_span would produce, so hit vs miss can never change a
//     result (tests/test_differential.cpp enforces this across techniques);
//   * zero steady-state allocation — everything (keys + payload slab) is
//     sized once at construction, preserving the engine's fast-path
//     guarantee (tests/test_fastpath.cpp);
//   * technique-aware — each embedding tensor of the compiled plan gets its
//     own partition (its rows have a technique-specific width, and partition
//     isolation guarantees that the ≤1 row per table an embed step holds is
//     never evicted by a concurrent fill to another table). The one-hot
//     Weinberger path streams the whole table and bypasses the cache
//     entirely (ExecutionContext::enable_row_cache refuses to attach one).
//
// Replacement is direct-mapped: slot = mix(row) % partition slots, a miss
// overwrites whatever lived there. Deterministic, allocation-free, and a
// reasonable stand-in for the clock/LRU an on-device runtime would use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace memcom {

// Aggregate counters, embedded in ServingReport and surfaced per run via
// InferenceView/BatchResult deltas — MemoryMeter-style accounting for the
// cache's resident footprint.
struct RowCacheStats {
  bool enabled = false;  // false: no cache attached (or one-hot bypass)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t resident_bytes = 0;  // filled slots (keys + payload)
  std::size_t capacity_bytes = 0;  // the configured budget's slot total
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class HotRowCache {
 public:
  // One partition per embedding tensor of the execution plan;
  // `table_row_elems[t]` is the float width of table t's rows. The byte
  // budget is split evenly across partitions. A table whose single-slot
  // cost exceeds its share gets ZERO slots and is bypassed — total slot
  // capacity NEVER exceeds budget_bytes (the fixed-budget contract;
  // tests/test_hot_row_cache.cpp asserts it).
  HotRowCache(std::size_t budget_bytes, std::vector<Index> table_row_elems);

  // Returns the cached row on a hit, nullptr on a miss (counted either
  // way). On a miss the caller dequantizes into fill() for the same key.
  // Bypassed (zero-slot) tables return nullptr without counting a miss.
  const float* lookup(std::size_t table, Index row);

  // Claims the slot for (table, row) and returns its payload pointer; the
  // caller writes exactly row_elems(table) floats. Overwrites (evicts) any
  // previous occupant of the slot. Returns nullptr for a bypassed table —
  // the caller must serve the read directly from the mapping.
  float* fill(std::size_t table, Index row);

  Index row_elems(std::size_t table) const {
    return partitions_[table].row_elems;
  }
  std::size_t table_count() const { return partitions_.size(); }
  std::size_t slot_count() const;

  // Drops every entry and resets the counters: the next pass runs cold.
  void clear();

  RowCacheStats stats() const;

 private:
  struct Partition {
    Index row_elems = 0;
    std::size_t slots = 0;
    // key = row + 1 so 0 means "empty" (row ids start at 0).
    std::vector<std::uint64_t> keys;
    std::vector<float> payload;
    std::size_t filled = 0;
  };

  static std::size_t slot_index(const Partition& p, Index row);

  std::vector<Partition> partitions_;
  std::size_t capacity_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace memcom
