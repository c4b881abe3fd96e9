#ifndef CASPER_STORAGE_TABLE_H_
#define CASPER_STORAGE_TABLE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/chunk_latch.h"
#include "storage/chunk_rows.h"
#include "storage/column_chunk.h"
#include "storage/types.h"
#include "util/status.h"

namespace casper {

class ThreadPool;

namespace persist {
struct PersistedChunk;
}  // namespace persist

/// A column-group table in the HAP schema: one key column a0 (the sort /
/// partition attribute) plus `p` fixed-width payload columns a1..ap.
/// The key column is a sequence of range-partitioned chunks (1M values each
/// by default, paper §7 "Column Chunks"); payload columns are flat arrays
/// aligned slot-for-slot with each chunk, kept in sync by replaying the
/// chunk's MoveLog. The Frequency Model and layout decisions are oblivious
/// to payload width (paper §4.2, "Columns and Column-Groups").
class PartitionedTable {
 public:
  struct Options {
    size_t chunk_values = size_t{1} << 20;
    PartitionedColumnChunk::Options chunk;
  };

  /// Physical layout for one chunk: partition sizes in values (must sum to
  /// the chunk's row count) and per-partition ghost-slot counts.
  struct ChunkLayoutSpec {
    std::vector<size_t> partition_sizes;
    std::vector<size_t> ghosts;
  };

  /// Bulk-loads rows already sorted by key. `payload_cols[c][r]` is column
  /// c+1 of row r. `specs[i]` describes chunk i; chunks are formed by
  /// splitting the sorted input into runs of at most options.chunk_values.
  static PartitionedTable Build(std::vector<Value> sorted_keys,
                                std::vector<std::vector<Payload>> payload_cols,
                                std::vector<ChunkLayoutSpec> specs,
                                Options options);
  static PartitionedTable Build(std::vector<Value> sorted_keys,
                                std::vector<std::vector<Payload>> payload_cols,
                                std::vector<ChunkLayoutSpec> specs);

  // --- Queries ---------------------------------------------------------------

  /// Q1: point query. Returns match count; fills `payload_out` (resized to
  /// the payload column count) with the first match's payload if any.
  size_t PointLookup(Value key, std::vector<Payload>* payload_out = nullptr) const;

  // --- Per-chunk read surface (morsel-driven execution) ----------------------
  // The chunk-c slice of a whole-table query: merging the slices of all
  // chunks (in any order) reproduces the serial answer. A chunk outside the
  // key range contributes 0 after an O(1) bounds check.
  // Every per-chunk read holds that chunk's latch shared and every write
  // holds it exclusive (see chunk_latch.h), so reads may overlap ingest and
  // chunk-disjoint write runs commit in parallel; the per-chunk access
  // counters are relaxed atomics on top of that.

  /// The chunk-c slice of an arbitrary ScanSpec (exec/scan_spec.h) — the
  /// per-chunk read behind LayoutEngine::ScanSpecShard, and the only one:
  /// counts, sums, the Q6 shape, min/max/avg and full scans all come here.
  /// Under the chunk's shared latch it builds a PartitionSource view — the
  /// chunk with its resident arrays, or with the tier file of an evicted
  /// chunk — and hands it to ScanPartitions (storage/partition_scan.h), the
  /// one partition walk for every tier. A read never builds or keeps anything.
  ScanPartial ScanSpecInChunk(size_t c, const ScanSpec& spec) const;

  /// O(1) key-range overlap test against the chunk routing bounds.
  bool ChunkOverlapsRange(size_t c, Value lo, Value hi) const {
    const bool is_last = (c + 1 == chunks_.size());
    if (!is_last && chunk_uppers_[c] < lo) return false;      // entirely below
    if (c > 0 && chunk_uppers_[c - 1] >= hi - 1) return false;  // entirely above
    return true;
  }

  // --- Writes ----------------------------------------------------------------

  /// Q4: insert a row. `payload` must have one entry per payload column.
  void Insert(Value key, const std::vector<Payload>& payload);

  /// Q5: delete one row with the given key. Returns rows deleted (0 or 1).
  size_t Delete(Value key);

  /// Q6: move one row from old_key to new_key (primary-key correction).
  bool UpdateKey(Value old_key, Value new_key);

  /// Applies a run of inserts/deletes with results identical to applying
  /// them in order one-by-one. The run is routed once (one binary search per
  /// op, stable within each chunk) and then applied chunk-by-chunk — legal
  /// because inserts/deletes on different chunks touch disjoint state and
  /// same-key ops always share a chunk, keeping their relative order. With a
  /// pool, chunk groups run concurrently (morsel over the touched chunks).
  /// Each chunk group commits under that chunk's exclusive latch, so two
  /// ApplyWriteRun calls with chunk-disjoint runs may execute from different
  /// threads at the same time (multi-writer ingest); overlapping runs
  /// serialize per chunk without deadlock (one latch held at a time).
  /// Returns the number of rows actually deleted.
  size_t ApplyWriteRun(const std::vector<BatchWrite>& run,
                       ThreadPool* pool = nullptr);

  // --- Concurrency control ---------------------------------------------------

  /// Chunk index `key` routes to (immutable routing bounds, so this is safe
  /// to call concurrently with any reads or writes).
  size_t ChunkFor(Value key) const { return RouteChunk(key); }

  /// Chunk-c ChunkStats copy that is coherent with respect to writers: it is
  /// taken under the chunk's shared latch, so no exclusive writer is inside
  /// while the counters are copied. The caller must hold no chunk latch.
  ChunkStatsSnapshot CoherentStatsSnapshot(size_t c) const {
    const TableChunk& ch = *chunks_[c];
    SharedChunkGuard guard(ch.latch);
    return ch.keys.StatsSnapshot();
  }

  /// Unified stats read surface: one CoherentStatsSnapshot per chunk
  /// (behind PartitionedLayout::StatsSnapshots).
  StatsSnapshotRegistry StatsSnapshots() const {
    StatsSnapshotRegistry reg;
    reg.per_chunk.reserve(chunks_.size());
    for (size_t c = 0; c < chunks_.size(); ++c) {
      reg.per_chunk.push_back(CoherentStatsSnapshot(c));
    }
    return reg;
  }

  // --- Online re-layout (maintenance surface) --------------------------------

  /// Live rows of chunk c and, for each of the `n` ascending `keys`, the
  /// count of the chunk's live keys below it (`ranks[i]`), under one shared
  /// latch — where the maintenance cycle places the keys its observed ops
  /// name. Ranks come from partition geometry (RankKeys in
  /// storage/partition_scan.h); no key is copied or sorted. With n == 0 only
  /// the row count is read (no I/O); otherwise an evicted chunk's tier file
  /// is read once.
  size_t RankKeysInChunk(size_t c, const Value* keys, size_t n,
                         size_t* ranks) const;

  /// Live partition sizes of chunk c under its shared latch (the advisor's
  /// view of the current geometry, for costing the layout as it stands).
  void SnapshotChunkPartitionSizes(size_t c, std::vector<size_t>* out) const;

  /// Rebuilds chunk c's physical layout to `spec` in place, under the
  /// chunk's exclusive latch, while queries keep flowing on every other
  /// chunk. Live rows are extracted in key order (payload carried along),
  /// the requested partition cuts are clamped to the row count found at
  /// latch time (writes may land between the advisor's snapshot and the
  /// exclusive hold), and the chunk's access counters survive the swap.
  /// Chunk routing bounds are untouched — a chunk's
  /// key range is a build-time constant; only its internal partitioning
  /// changes. Returns false (no-op) for an empty chunk or an empty spec.
  bool RepartitionChunk(size_t c, const ChunkLayoutSpec& spec);

  /// FNV-1a hash over every chunk's partition geometry (region offsets,
  /// capacities, routing uppers), read under shared latches. Stable across
  /// reads; changes when a re-partition alters the physical layout — the
  /// "disabled maintenance never mutates layout" test hook.
  uint64_t LayoutFingerprint() const;

  // --- Tiered storage (persist/) ---------------------------------------------
  // A chunk is either resident or evicted: its rows live in a .cspr tier
  // file, and its geometry (partitions, zone maps, partition index, live
  // count, counters) stays resident, so every read routes and prunes on one
  // geometry in both tiers. A read that needs rows loads the file once and
  // reads it through a PartitionSource (storage/partition_scan.h); one that
  // needs none (a full-domain count, a zone-pruned point lookup, geometry and
  // footprint queries) opens no file. Any write to an evicted chunk promotes
  // it first, under the same exclusive latch the write already holds.

  /// Demotes chunk c to `path` (one durable .cspr file) and releases its
  /// in-memory storage, under the chunk's exclusive latch. Returns false
  /// (no-op) if the chunk is already evicted, empty, or the write fails.
  bool EvictChunk(size_t c, const std::string& path);

  /// Promotes chunk c back to residency (no-op if already resident).
  /// Geometry is rebuilt through the deterministic Build path from the tier
  /// file; the stale tier file is removed.
  bool PromoteChunk(size_t c);

  /// Whether chunk c currently holds its data in memory.
  bool ChunkResident(size_t c) const;

  /// Resident bytes of chunk c's key + payload storage (0 when evicted).
  size_t ChunkMemoryBytes(size_t c) const;

  /// Bytes chunk c occupies when resident: slot capacity x row width, read
  /// from its geometry in either tier — the tier manager's admission check
  /// for promotions under a byte budget.
  size_t ChunkFootprintIfResident(size_t c) const;

  /// Chunk c's live rows in partition order (storage/chunk_rows.h), under
  /// the chunk's shared latch: the input of the chunk-file writer.
  ChunkRows SnapshotChunkRows(size_t c) const;

  // --- Introspection -----------------------------------------------------------

  size_t num_rows() const { return static_cast<size_t>(rows_.load()); }
  size_t num_chunks() const { return chunks_.size(); }
  size_t num_payload_columns() const { return payload_cols_; }
  /// Raw chunk access for tests/capture; bypasses the latch — callers must
  /// hold it (or be single-threaded) when the table is shared. The asserts
  /// grant the capability to the static analysis and fail fast if a latched
  /// writer is demonstrably mid-flight.
  const PartitionedColumnChunk& key_chunk(size_t i) const {
    const TableChunk& ch = *chunks_[i];
    ch.latch.AssertReaderHeld();
    return ch.keys;
  }
  PartitionedColumnChunk& mutable_key_chunk(size_t i) {
    TableChunk& ch = *chunks_[i];
    ch.latch.AssertQuiescent();
    return ch.keys;
  }

  /// Bytes held by key + payload storage (memory-amplification reporting).
  size_t MemoryBytes() const;

  void ValidateInvariants() const;

 private:
  /// One chunk plus the latch that protects it. The latch lives INSIDE the
  /// chunk (rather than in a parallel latch array) so the thread-safety
  /// analysis can bind data to its protector: a local `TableChunk& ch` names
  /// both `ch.latch` and `ch.keys`, making `GUARDED_BY(latch)` checkable at
  /// every use site — latch-array indexing (`latches_[c]`) is opaque to the
  /// analysis. ChunkLatch is non-movable, so chunks are held by unique_ptr.
  struct TableChunk {
    TableChunk(PartitionedColumnChunk k, std::vector<std::vector<Payload>> p)
        : keys(std::move(k)), payload(std::move(p)) {}
    mutable ChunkLatch latch;
    PartitionedColumnChunk keys GUARDED_BY(latch);
    std::vector<std::vector<Payload>> payload GUARDED_BY(latch);  // [col][slot]
    /// The tier file holding the chunk's rows while it is evicted (key and
    /// payload storage released, geometry kept); empty when resident.
    /// Eviction and promotion set and clear it under the exclusive latch.
    std::string evicted GUARDED_BY(latch);
  };

  PartitionedTable() = default;

  size_t RouteChunk(Value key) const;
  void ApplyMoveLog(TableChunk& chunk, const MoveLog& log,
                    const std::vector<Payload>* new_payload,
                    std::vector<Payload>* stash) REQUIRES(chunk.latch);

  /// Cross-chunk key move: delete `old_key` from src, reinsert as `new_key`
  /// in dst carrying the payload. Both latches held by the caller (acquired
  /// in ascending chunk index, see UpdateKey).
  bool MoveRowAcrossChunks(TableChunk& src, TableChunk& dst, Value old_key,
                           Value new_key) REQUIRES(src.latch, dst.latch);

  /// Reads + parses an evicted chunk's tier file, accounting the disk read
  /// on the chunk's counters. The file must parse, and each partition's
  /// size, cap and upper must equal the chunk's resident geometry — reads
  /// pair the file's rows with that geometry. Either failure is
  /// unrecoverable here (recovery-time corruption is handled by wiping the
  /// tier and rebuilding from base + journal).
  persist::PersistedChunk LoadEvicted(const TableChunk& ch) const
      REQUIRES_SHARED(ch.latch);

  /// fn(PartitionSource) over ch's rows: the resident arrays, or the tier
  /// file loaded once (LoadEvicted) for the duration of the call.
  template <typename Fn>
  auto WithRows(const TableChunk& ch, Fn&& fn) const REQUIRES_SHARED(ch.latch);

  /// The one point read of ch: probe the resident geometry (a miss it proves
  /// opens no tier file), then PointRead the probed partition's rows.
  size_t PointLookupLocked(const TableChunk& ch, Value key,
                           std::vector<Payload>* payload_out) const
      REQUIRES_SHARED(ch.latch);

  /// Bytes one slot takes across the key and payload columns.
  size_t RowBytes() const {
    return sizeof(Value) + payload_cols_ * sizeof(Payload);
  }

  /// Brings an evicted chunk back to residency in place (no-op when already
  /// resident): decode the tier file, rebuild it (RebuildChunkLocked), remove
  /// the now-stale tier file.
  void EnsureResidentLocked(TableChunk& ch) REQUIRES(ch.latch);

  /// The locked core of SnapshotChunkRows (also what eviction and
  /// re-partition read; an exclusive hold satisfies it).
  ChunkRows SnapshotRowsLocked(const TableChunk& ch) const
      REQUIRES_SHARED(ch.latch);

  /// Replaces chunk ch with a fresh Build of `sorted_keys` to `spec`, its
  /// payload placed to the new slot layout, and its access counters carried
  /// over: they describe the data, not the geometry, so they survive
  /// re-partition, eviction and promotion alike.
  void RebuildChunkLocked(TableChunk& ch, std::vector<Value> sorted_keys,
                          const std::vector<std::vector<Payload>>& payload,
                          ChunkLayoutSpec spec) REQUIRES(ch.latch);

  Options opts_;
  size_t payload_cols_ = 0;
  /// Whole-table row count: relaxed atomic because chunk-disjoint write runs
  /// commit from multiple threads at once (each under its own chunk latch).
  RelaxedCounter rows_;
  /// Chunk set and routing bounds are sized once at Build and never change;
  /// only the data inside each TableChunk (guarded by its latch) mutates.
  std::vector<std::unique_ptr<TableChunk>> chunks_;
  std::vector<Value> chunk_uppers_;
};

}  // namespace casper

#endif  // CASPER_STORAGE_TABLE_H_
