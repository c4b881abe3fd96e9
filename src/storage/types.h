#ifndef CASPER_STORAGE_TYPES_H_
#define CASPER_STORAGE_TYPES_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace casper {

/// Key attribute type (the HAP schema's 8-byte integer a0).
using Value = int64_t;

/// Payload attribute type (the HAP schema's 4-byte integers a1..ap).
using Payload = uint32_t;

constexpr Value kMinValue = std::numeric_limits<Value>::min();
constexpr Value kMaxValue = std::numeric_limits<Value>::max();

/// One caller-supplied row for the payload-carrying batch ingest API
/// (PartitionedLayout::InsertRows): a key plus one payload value per payload
/// column. Unlike the Operation-stream write path, whose inserts take
/// key-derived payloads, this is the production surface where the
/// application owns the row contents.
struct Row {
  Value key = 0;
  std::vector<Payload> payload;  ///< one entry per payload column
};

/// One write of a batched write run (PartitionedTable::ApplyWriteRun): an
/// insert carrying its payload, or a delete of one row with `key`.
struct BatchWrite {
  Value key = 0;
  bool is_insert = false;  ///< false = delete-one
  std::vector<Payload> payload;  ///< inserts only; one entry per column
};

/// Physical slot movements performed by a chunk operation. Column groups
/// replay the log on payload columns so rows stay positionally aligned
/// (the Frequency Model and chunk logic are oblivious to payload width,
/// paper §4.2 "Columns and Column-Groups").
struct MoveLog {
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// Element copies data[from] -> data[to], in execution order.
  std::vector<std::pair<uint32_t, uint32_t>> moves;
  /// Final slot of the row inserted / updated by this operation.
  uint32_t touched_slot = kNone;
  /// Original slot of the row being updated (its payload must be stashed
  /// before applying `moves` and rewritten at `touched_slot` afterwards).
  uint32_t source_slot = kNone;
  /// New chunk capacity if the operation grew the underlying buffer.
  uint32_t grew_to = kNone;

  void Clear() {
    moves.clear();
    touched_slot = kNone;
    source_slot = kNone;
    grew_to = kNone;
  }
};

/// Monotonic accounting counter bumped from concurrent const read paths.
/// All accesses are relaxed atomics: counters are frequency accounting, not
/// synchronization, so no ordering is needed — only that concurrent
/// increments from parallel shard scans are not lost (and are not UB).
/// Copy/assignment take a snapshot of the source, keeping the owning chunk
/// movable; they are only safe while the source is quiescent.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t v) : v_(v) {}
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    store(other.load());
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    store(v);
    return *this;
  }

  RelaxedCounter& operator++() {
    Add(1);
    return *this;
  }
  RelaxedCounter& operator+=(uint64_t delta) {
    Add(delta);
    return *this;
  }
  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(uint64_t delta) { v_.fetch_sub(delta, std::memory_order_relaxed); }
  /// Atomic post-increment returning the prior value: the idiom behind
  /// work-distribution cursors (morsel claim counters, timestamp oracles)
  /// where each caller must observe a distinct value but no ordering with
  /// surrounding data is implied.
  uint64_t FetchAdd(uint64_t delta) {
    return v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Monotonic max accumulation (relaxed CAS loop); lost-update-free but,
  /// like every accessor here, carries no ordering.
  void UpdateMax(uint64_t v) {
    uint64_t cur = load();
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  operator uint64_t() const { return load(); }
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Plain-value copy of a ChunkStats, for the solver/capture/reporting paths
/// that want one coherent set of numbers instead of six racing loads.
struct ChunkStatsSnapshot {
  uint64_t element_reads = 0;
  uint64_t element_writes = 0;
  uint64_t ripple_steps = 0;
  uint64_t partitions_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t compressed_scans = 0;
  uint64_t compressed_payload_scans = 0;
  uint64_t payload_partitions_pruned = 0;
  uint64_t grows = 0;
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_bytes_read = 0;
};

/// The unified stats read surface: one coherent counter snapshot per chunk,
/// as returned by PartitionedLayout::StatsSnapshots(). Everything that used
/// to hand-roll CoherentStatsSnapshot loops (dashboards, advisors, the
/// layout maintenance service) reads this instead.
struct StatsSnapshotRegistry {
  std::vector<ChunkStatsSnapshot> per_chunk;

  ChunkStatsSnapshot Totals() const {
    ChunkStatsSnapshot t;
    for (const ChunkStatsSnapshot& s : per_chunk) {
      t.element_reads += s.element_reads;
      t.element_writes += s.element_writes;
      t.ripple_steps += s.ripple_steps;
      t.partitions_scanned += s.partitions_scanned;
      t.partitions_pruned += s.partitions_pruned;
      t.compressed_scans += s.compressed_scans;
      t.compressed_payload_scans += s.compressed_payload_scans;
      t.payload_partitions_pruned += s.payload_partitions_pruned;
      t.grows += s.grows;
      t.evictions += s.evictions;
      t.promotions += s.promotions;
      t.disk_reads += s.disk_reads;
      t.disk_bytes_read += s.disk_bytes_read;
    }
    return t;
  }
};

/// Data-movement accounting, used by tests to pin the ripple algorithms to
/// the cost model and by benches for reporting. Counters are relaxed atomics
/// because const read paths account their data movement too: concurrent
/// queries (and parallel shard scans within one query) bump them from many
/// threads at once. Totals are exact under any interleaving of increments;
/// Snapshot() is coherent only when taken between queries.
struct ChunkStats {
  RelaxedCounter element_reads;
  RelaxedCounter element_writes;
  RelaxedCounter ripple_steps;       ///< free-slot moves across boundaries
  RelaxedCounter partitions_scanned; ///< partitions touched by queries
  RelaxedCounter partitions_pruned;  ///< partitions skipped by their zone map
                                     ///< (min_val/max_val excluded the range
                                     ///< without reading a single element)
  RelaxedCounter compressed_scans;   ///< range counts answered from a chunk
                                     ///< file's packed (FoR) key frames
  RelaxedCounter compressed_payload_scans;  ///< partition scans that read at
                                            ///< least one packed (FoR/dict)
                                            ///< payload column
  RelaxedCounter payload_partitions_pruned;  ///< partitions skipped because a
                                             ///< payload zone map excluded a
                                             ///< predicate range
  RelaxedCounter grows;
  RelaxedCounter evictions;         ///< times this chunk was demoted to disk
  RelaxedCounter promotions;        ///< times it was rebuilt back in memory
  RelaxedCounter disk_reads;        ///< cold reads served from the chunk file
  RelaxedCounter disk_bytes_read;   ///< bytes those cold reads pulled off disk

  ChunkStatsSnapshot Snapshot() const {
    ChunkStatsSnapshot s;
    s.element_reads = element_reads.load();
    s.element_writes = element_writes.load();
    s.ripple_steps = ripple_steps.load();
    s.partitions_scanned = partitions_scanned.load();
    s.partitions_pruned = partitions_pruned.load();
    s.compressed_scans = compressed_scans.load();
    s.compressed_payload_scans = compressed_payload_scans.load();
    s.payload_partitions_pruned = payload_partitions_pruned.load();
    s.grows = grows.load();
    s.evictions = evictions.load();
    s.promotions = promotions.load();
    s.disk_reads = disk_reads.load();
    s.disk_bytes_read = disk_bytes_read.load();
    return s;
  }

  void Clear() { Restore(ChunkStatsSnapshot{}); }

  /// Re-seeds the counters from a snapshot: a rebuilt chunk (re-partition,
  /// promotion) carries its counts over, since they describe the data, not
  /// the geometry.
  void Restore(const ChunkStatsSnapshot& s) {
    element_reads.store(s.element_reads);
    element_writes.store(s.element_writes);
    ripple_steps.store(s.ripple_steps);
    partitions_scanned.store(s.partitions_scanned);
    partitions_pruned.store(s.partitions_pruned);
    compressed_scans.store(s.compressed_scans);
    compressed_payload_scans.store(s.compressed_payload_scans);
    payload_partitions_pruned.store(s.payload_partitions_pruned);
    grows.store(s.grows);
    evictions.store(s.evictions);
    promotions.store(s.promotions);
    disk_reads.store(s.disk_reads);
    disk_bytes_read.store(s.disk_bytes_read);
  }
};

}  // namespace casper

#endif  // CASPER_STORAGE_TYPES_H_
