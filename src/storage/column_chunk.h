#ifndef CASPER_STORAGE_COLUMN_CHUNK_H_
#define CASPER_STORAGE_COLUMN_CHUNK_H_

#include <cstddef>
#include <vector>

#include "exec/scan_kernels.h"
#include "storage/partition_index.h"
#include "storage/types.h"

namespace casper {

/// A range-partitioned column chunk — the physical heart of Casper
/// (paper §3, §6). Values live in one contiguous buffer split into
/// partitions; each partition's free ("ghost") slots sit at the tail of its
/// region, so `begin[t+1] == begin[t] + cap[t]` always holds.
///
/// Writes move data with the ripple algorithms of paper Fig. 4: a free slot
/// travels across partition boundaries one element copy per partition, so
/// the measured data movement matches the cost model's
/// (RR + RW) x trailing-partitions term exactly. With ghost values
/// (paper Fig. 5), inserts into a partition that has a free slot are O(1),
/// deletes create new free slots in place, and updates ripple only between
/// the source and destination partitions.
class PartitionedColumnChunk {
 public:
  struct Options {
    /// Values per logical block; partitions are built on block boundaries
    /// but drift freely afterwards (paper §4.4).
    size_t block_values = 4096;
    /// Dense mode (no ghost values): every delete ripples its hole to the
    /// column end, every insert pulls a slot from the end. Ghost mode
    /// leaves/uses free slots in place.
    bool dense = false;
    /// When a ripple must fetch free capacity, move up to this many slots at
    /// once so neighbors can reuse them (paper §6.1 "moves a block of ghost
    /// values every time one is necessary"). 1 reproduces the textbook
    /// ripple.
    size_t ghost_batch = 1;
    /// Extra free slots appended after the last partition at build time
    /// (the column-end scratch space of the dense design).
    size_t spare_tail = 0;
    /// Partition-index fan-out.
    size_t index_fanout = 9;
  };

  struct Partition {
    size_t begin = 0;  ///< first slot of this partition's region
    size_t size = 0;   ///< live values (stored in [begin, begin+size))
    size_t cap = 0;    ///< region width; free slots in [begin+size, begin+cap)
    Value upper = 0;   ///< routing bound: keys <= upper belong here
    Value min_val = kMaxValue;  ///< zonemap (conservative under deletes)
    Value max_val = kMinValue;

    size_t free_slots() const { return cap - size; }
  };

  /// Builds a chunk from `sorted_values` cut into partitions of
  /// `partition_sizes` values (must sum to the data size), giving partition
  /// t `ghosts[t]` free slots (empty = none). Cuts never split duplicate
  /// values: a cut landing inside a run of equal values slides forward, and
  /// partitions emptied by the slide are merged away.
  static PartitionedColumnChunk Build(std::vector<Value> sorted_values,
                                      std::vector<size_t> partition_sizes,
                                      std::vector<size_t> ghosts,
                                      Options options);
  static PartitionedColumnChunk Build(std::vector<Value> sorted_values,
                                      std::vector<size_t> partition_sizes,
                                      std::vector<size_t> ghosts = {});

  // --- Read path -------------------------------------------------------------

  /// Number of live values equal to v (point query, paper Fig. 3b).
  size_t CountEqual(Value v) const;
  bool Contains(Value v) const { return CountEqual(v) > 0; }

  /// Slots (positions) of live values equal to v.
  void CollectSlots(Value v, std::vector<uint32_t>* out) const;

  /// Visits each live slot in [lo, hi): fn(slot). Used by tables to apply
  /// per-row logic (e.g. payload aggregation) on qualifying rows. Boundary
  /// partitions are filtered through the vectorized FilterSlots kernel;
  /// zone-map-qualified partitions skip the predicate entirely.
  template <typename Fn>
  void ForEachSlotInRange(Value lo, Value hi, Fn&& fn) const;

  // --- Compressed read path --------------------------------------------------

  /// Live values in partition order plus one frame size per non-empty
  /// partition — the source layout for this chunk's frame-of-reference
  /// encoding (frames == partitions, so the paper's partitioning/compression
  /// synergy holds: finer partitions => narrower frames).
  void LiveValues(std::vector<Value>* values,
                  std::vector<size_t>* frame_sizes) const;

  // --- Write path ------------------------------------------------------------

  /// Inserts v into its range partition (paper Fig. 4a / Fig. 5).
  void Insert(Value v, MoveLog* log = nullptr);

  /// Ensures the partition owning v has a free slot without inserting — the
  /// decoupled ghost-value fetch of paper §6.1: transactions trigger it
  /// eagerly, and the movement persists even if the transaction aborts
  /// ("the already completed fetching of ghost values will persist and will
  /// benefit future inserts").
  void PrepareInsertSlot(Value v, MoveLog* log = nullptr);

  /// Deletes one occurrence of v. Returns the number deleted (0 or 1).
  size_t DeleteOne(Value v, MoveLog* log = nullptr);

  /// Moves one occurrence of old_value to new_value (direct ripple update,
  /// paper §3 "Updates"). Returns false if old_value is absent.
  bool Update(Value old_value, Value new_value, MoveLog* log = nullptr);

  // --- Introspection ----------------------------------------------------------

  size_t size() const { return live_; }
  size_t capacity() const { return data_.size(); }
  size_t num_partitions() const { return parts_.size(); }
  const Partition& partition(size_t t) const { return parts_[t]; }
  const std::vector<Partition>& partitions() const { return parts_; }
  const PartitionIndex& partition_index() const { return index_; }
  const std::vector<Value>& raw_data() const { return data_; }
  Value domain_upper() const { return parts_.back().upper; }

  ChunkStats& stats() { return stats_; }
  /// Read paths account their data movement too: the counters are mutable
  /// relaxed atomics, so const callers (e.g. the partition evaluator
  /// recording packed-payload scans and payload-zone prunes) may bump them.
  ChunkStats& stats() const { return stats_; }
  /// One coherent copy of the counters (take between queries for exact
  /// totals; always safe to call, even mid-query).
  ChunkStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }

  const Options& options() const { return opts_; }

  /// Partition id a key routes to (exposed for tests and FM capture).
  size_t RoutePartition(Value v) const { return index_.Route(v); }

  /// Asserts every structural invariant; test hook (O(capacity)).
  void ValidateInvariants() const;

  // --- Tiered storage ---------------------------------------------------------

  /// Drops the value buffer and partition metadata — the chunk's data now
  /// lives in its on-disk tier file. The live count and the access counters
  /// stay resident (stats survive eviction exactly as they survive a
  /// re-partition, and size() keeps feeding the table's row accounting);
  /// promotion replaces this object wholesale via Build.
  void ReleaseStorage() {
    data_.clear();
    data_.shrink_to_fit();
    parts_.clear();
    parts_.shrink_to_fit();
    index_ = PartitionIndex();
  }

 private:
  PartitionedColumnChunk() = default;

  // Moves one free slot from partition t+1 to partition t (toward the
  // front). Precondition: parts_[t+1].free_slots() > 0.
  void MoveFreeSlotLeft(size_t t, MoveLog* log);
  // Moves one free slot from partition t to partition t+1 (toward the back).
  // Precondition: parts_[t].free_slots() > 0.
  void MoveFreeSlotRight(size_t t, MoveLog* log);

  // Brings >=1 free slot into partition m (ghost_batch at most), growing the
  // buffer when the chunk is completely full. Returns false only on internal
  // error.
  void EnsureFreeSlot(size_t m, MoveLog* log);

  // Nearest partition (by boundary distance from m) holding a free slot;
  // SIZE_MAX if none.
  size_t FindDonor(size_t m) const;

  void Grow(MoveLog* log);

  Options opts_;
  std::vector<Value> data_;
  std::vector<Partition> parts_;
  PartitionIndex index_;
  // Reads also account their data movement; recorders are not logical state.
  // Relaxed-atomic counters: const read paths bump them from concurrent
  // queries, so plain fields here would be a data race (and once corrupted
  // the frequency accounting the solver consumes).
  mutable ChunkStats stats_;
  size_t live_ = 0;
};

template <typename Fn>
void PartitionedColumnChunk::ForEachSlotInRange(Value lo, Value hi, Fn&& fn) const {
  if (lo >= hi || live_ == 0) return;
  const size_t first = index_.Route(lo);
  const size_t last = index_.Route(hi - 1);
  for (size_t t = first; t <= last && t < parts_.size(); ++t) {
    const Partition& p = parts_[t];
    if (p.size == 0) continue;
    if (p.min_val >= hi || p.max_val < lo) {
      ++stats_.partitions_pruned;  // zone map excluded it: zero touched
      continue;
    }
    // A boundary partition whose zone map sits fully inside [lo, hi) needs
    // no predicate either — same blind consume as a middle partition.
    const bool check = (t == first || t == last) &&
                       !(p.min_val >= lo && p.max_val < hi);
    if (check) {
      kernels::ForEachQualifyingSlot(data_.data() + p.begin, p.size, lo, hi,
                                     static_cast<uint32_t>(p.begin), fn);
    } else {
      for (size_t s = p.begin; s < p.begin + p.size; ++s) {
        fn(static_cast<uint32_t>(s));
      }
    }
  }
}

}  // namespace casper

#endif  // CASPER_STORAGE_COLUMN_CHUNK_H_
