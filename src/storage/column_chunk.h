#ifndef CASPER_STORAGE_COLUMN_CHUNK_H_
#define CASPER_STORAGE_COLUMN_CHUNK_H_

#include <cstddef>
#include <vector>

#include "storage/partition_index.h"
#include "storage/types.h"

namespace casper {

struct ChunkRows;

/// A range-partitioned column chunk — the physical heart of Casper
/// (paper §3, §6). Keys live in one contiguous buffer split into
/// partitions; each partition's free ("ghost") slots sit at the tail of its
/// region, so `begin[t+1] == begin[t] + cap[t]` always holds.
///
/// The chunk owns its rows: beside the key buffer it holds one payload array
/// per payload column, sized like the key buffer, and row r sits at the same
/// slot in each of them. The key column decides the layout and the payload
/// columns follow it (paper §4.2, "Columns and Column-Groups"): every copy
/// the chunk makes (MoveRows) moves the key and each payload column at once.
///
/// Every write is made of three steps: find a row's slot in its partition
/// (probed like a point read), take the row out (its payload copied out and
/// the partition's last row moved into the hole), and place a row at a
/// partition's first free slot. An insert places, a delete takes and hands
/// the row out, and an update takes, ripples the free slot to the
/// destination partition and places the same row there.
///
/// Writes move data with the ripple algorithms of paper Fig. 4: a free slot
/// travels across partition boundaries one element copy per partition, so
/// the measured data movement matches the cost model's
/// (RR + RW) x trailing-partitions term exactly. Every ripple is one
/// CarrySlots: k free slots cross each boundary between two partitions as
/// one run of k copies, and the counters are bumped once, when the slots
/// arrive. A dense chunk carries one slot at a time; a ghost chunk that must
/// fetch free capacity carries a block of up to kGhostBatch slots, so the
/// next inserts find them in place (paper §6.1). With ghost values (paper
/// Fig. 5), inserts into a partition that has a free slot are O(1), deletes
/// create new free slots in place, and updates ripple only between the
/// source and destination partitions. The counters count key elements only,
/// so the cost model prices a row like a key.
///
/// Rows enter slots one way (LaidOut, in Build, Grow and RestoreStorage)
/// and leave them one way (Rows, the live rows in partition order).
///
/// When no partition has a free slot left, the chunk grows. Build and
/// re-partition spread ghost slots by the model's insert frequency (paper
/// §6.1, Eq. 18); a grow applies the same rule online, spreading its new
/// slots over the partitions by the inserts each took since the last build
/// or grow, so the slack lands where the inserts go.
class PartitionedColumnChunk {
 public:
  struct Options {
    /// Dense mode (no ghost values): every delete ripples its hole to the
    /// column end, every insert pulls a slot from the end. Ghost mode
    /// leaves/uses free slots in place.
    bool dense = false;
    /// Extra free slots appended after the last partition at build time
    /// (the column-end scratch space of the dense design).
    size_t spare_tail = 0;
  };

  /// Free slots a ghost chunk's insert fetches at once when its partition
  /// has none (paper §6.1 "moves a block of ghost values every time one is
  /// necessary"); a dense chunk fetches one, the textbook ripple.
  static constexpr size_t kGhostBatch = 8;

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
  /// partitions emptied by the slide are merged away. Row r's payload is
  /// `payload[c][first_row + r]` for each payload column c; no columns
  /// builds a key-only chunk.
  static PartitionedColumnChunk Build(
      std::vector<Value> sorted_values, std::vector<size_t> partition_sizes,
      std::vector<size_t> ghosts, Options options,
      const std::vector<std::vector<Payload>>& payload = {},
      size_t first_row = 0);
  static PartitionedColumnChunk Build(std::vector<Value> sorted_values,
                                      std::vector<size_t> partition_sizes,
                                      std::vector<size_t> ghosts = {});

  // --- Read path -------------------------------------------------------------

  /// The partition a point read of v scans (paper Fig. 3b), and the one a
  /// delete or an update of v searches: v's routed partition, or kNoPartition
  /// when that partition is empty or its zone map excludes v. Counts the
  /// partition scanned, and pruned when excluded. Reads only geometry, so it
  /// answers for an evicted chunk too.
  size_t ProbePartition(Value v) const;
  static constexpr size_t kNoPartition = static_cast<size_t>(-1);

  /// Number of live values equal to v (point query, paper Fig. 3b).
  size_t CountEqual(Value v) const;

  // --- Write path ------------------------------------------------------------

  /// Inserts v into its range partition (paper Fig. 4a / Fig. 5), with
  /// `row` (one entry per payload column) at the same slot.
  void Insert(Value v, const std::vector<Payload>& row = {});

  /// Deletes one row with key v, probed like a point read (ProbePartition).
  /// Returns the number deleted (0 or 1); on a hit, `row_out` (if non-null)
  /// receives the removed row's payload, one entry per payload column.
  size_t DeleteOne(Value v, std::vector<Payload>* row_out = nullptr);

  /// Moves one row with key old_value to key new_value, payload unchanged
  /// (direct ripple update, paper §3 "Updates"). Returns false if old_value
  /// is absent.
  bool Update(Value old_value, Value new_value);

  // --- Introspection ----------------------------------------------------------

  size_t size() const { return live_; }
  /// Slots across all partition regions (live values plus free slots); the
  /// geometry holds it, so it stays readable after ReleaseStorage.
  size_t capacity() const { return parts_.back().begin + parts_.back().cap; }
  size_t num_partitions() const { return parts_.size(); }
  const Partition& partition(size_t t) const { return parts_[t]; }
  const std::vector<Partition>& partitions() const { return parts_; }
  const PartitionIndex& partition_index() const { return index_; }
  const std::vector<Value>& raw_data() const { return data_; }
  /// Payload columns, `[col][slot]`, aligned slot for slot with raw_data().
  const std::vector<std::vector<Payload>>& payload() const { return payload_; }
  Value domain_upper() const { return parts_.back().upper; }

  ChunkStats& stats() { return stats_; }
  /// Read paths account their data movement too: the counters are mutable
  /// relaxed atomics, so const callers (e.g. the partition evaluator
  /// recording evicted-partition scans and payload-zone prunes) may bump
  /// them.
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

  /// Drops the key and payload buffers — the chunk's rows now live in its
  /// on-disk tier file. Everything else stays resident: partitions, zone
  /// maps, the partition index, the live count and the access counters, so
  /// reads keep routing and pruning on one geometry in both tiers.
  void ReleaseStorage() {
    data_.clear();
    data_.shrink_to_fit();
    for (std::vector<Payload>& col : payload_) {
      col.clear();
      col.shrink_to_fit();
    }
  }

  /// The live rows in partition order with the geometry they sit in
  /// (storage/chunk_rows.h): what eviction encodes, re-partition rebuilds
  /// from and RestoreStorage lays back. The chunk must be resident.
  ChunkRows Rows() const;

  /// The inverse of ReleaseStorage (promotion): lays `rows` (as Rows gave
  /// them, or persist::DecodeChunkRows decoded them) back into buffers of
  /// the kept capacity, partition t's rows into slots [begin, begin + size)
  /// and zeros in the free slots. The chunk comes back slot for slot as it
  /// was evicted: no partition, zone map, index entry or counter is rebuilt.
  void RestoreStorage(const ChunkRows& rows);

 private:
  PartitionedColumnChunk() = default;

  // Applies one copy run to the key buffer and to each payload column.
  void MoveRows(const MoveRun& run);

  // The whole ripple: carries k free slots from partition `from` to
  // partition `to`, across every boundary between them. At each boundary
  // the partition behind it shifts its region by k slots, its rows moving
  // as one run of k copies (none when it is empty). Bumps the element and
  // ripple-step counters once, when the slots arrive. Precondition:
  // parts_[from].free_slots() >= k.
  void CarrySlots(size_t from, size_t to, size_t k);

  // Brings >=1 free slot into partition m (a ghost chunk fetches up to
  // kGhostBatch), growing the buffers when the chunk is completely full.
  void EnsureFreeSlot(size_t m);

  // Nearest partition (by boundary distance from m) holding a free slot;
  // SIZE_MAX if none.
  size_t FindDonor(size_t m) const;

  // Adds max(64, capacity/64) slots, triggered by an insert into partition
  // m. Partition t gets floor(growth x inserts_[t] / sum of inserts_) of
  // them (Eq. 18 over the inserts since the last build or grow), m the
  // rounding remainder, or all of them when nothing was inserted; a dense
  // chunk grows at its tail. The chunk is laid out anew in wider buffers
  // (LaidOut), each partition's live rows copied to its new begin (counted
  // as element reads and writes). Only begin and cap move, so uppers, zone
  // maps and the partition index stay valid.
  void Grow(size_t m);

  // The three steps every write is made of. FindRow: the slot of the first
  // row with key v in partition t, or kNoSlot; counts the partition's rows
  // as element reads. TakeRow: removes the row at `slot` of partition t,
  // copying its payload to `row_out` (if non-null) and moving the
  // partition's last row into the hole, so the free slot opens at the tail.
  // PlaceRow: writes (v, row) at partition t's first free slot, which must
  // exist, and counts the insert in inserts_[t].
  size_t FindRow(size_t t, Value v) const;
  void TakeRow(size_t t, size_t slot, Payload* row_out);
  void PlaceRow(size_t t, Value v, const Payload* row);
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  Options opts_;
  std::vector<Value> data_;
  std::vector<std::vector<Payload>> payload_;  // [col][slot]
  // An updated row's payload between its take and its place (Update); a
  // member, so an update allocates nothing.
  std::vector<Payload> row_scratch_;
  std::vector<Partition> parts_;
  // Rows placed in each partition since the last build or grow: the insert
  // frequency the next grow spreads its slots by.
  std::vector<size_t> inserts_;
  PartitionIndex index_;
  // Reads also account their data movement; recorders are not logical state.
  // Relaxed-atomic counters: const read paths bump them from concurrent
  // queries, so plain fields here would be a data race (and once corrupted
  // the frequency accounting the solver consumes).
  mutable ChunkStats stats_;
  size_t live_ = 0;
};

}  // namespace casper

#endif  // CASPER_STORAGE_COLUMN_CHUNK_H_
