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

/// A run of `len` element copies data[from + j] -> data[to + j]: the block
/// of ghost slots one ripple carries across one partition boundary (paper
/// §6.1), or a single swap (len 1). The chunk applies each run to its key
/// column and to every payload column (PartitionedColumnChunk::MoveRows).
struct MoveRun {
  uint32_t from = 0;
  uint32_t to = 0;
  uint32_t len = 0;
};

/// Replays one run in the order its single-slot copies were taken:
/// ascending j when to > from, descending otherwise. When the source holds
/// fewer live rows than the run is long, source and destination overlap and
/// a copy re-reads slots the run already wrote, so this is not memmove.
template <typename T>
inline void CopyRun(T* data, const MoveRun& run) {
  T* dst = data + run.to;
  const T* src = data + run.from;
  if (run.to > run.from) {
    for (uint32_t j = 0; j < run.len; ++j) dst[j] = src[j];
  } else {
    for (uint32_t j = run.len; j-- > 0;) dst[j] = src[j];
  }
}

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

/// The per-chunk data-movement counters, declared once over the counter
/// type: ChunkStats holds them as relaxed atomics, ChunkStatsSnapshot as
/// plain values. ForEachCounter is the one other place that names them.
template <typename T>
struct ChunkCounters {
  T element_reads{};
  T element_writes{};
  T ripple_steps{};        ///< free-slot moves across boundaries
  T partitions_scanned{};  ///< partitions visited: a point read's or a
                           ///< write's probed partition, and every non-empty
                           ///< partition a scan's key range covers, pruned
                           ///< or not, counted alike in both tiers
  T partitions_pruned{};   ///< partitions skipped by their zone map
                           ///< (min_val/max_val excluded the key or range
                           ///< without reading a single element)
  T compressed_scans{};    ///< count-only scans of an evicted chunk (one
                           ///< per scan; its partitions decode flat)
  T compressed_payload_scans{};   ///< scans of an evicted chunk's partition
                                  ///< that touch a payload column
  T payload_partitions_pruned{};  ///< partitions skipped because a payload
                                  ///< zone map excluded a predicate range
  T grows{};
  T evictions{};        ///< times this chunk was demoted to disk
  T promotions{};       ///< times its rows were restored to memory
  T disk_reads{};       ///< cold reads served from the chunk file
  T disk_bytes_read{};  ///< bytes those cold reads pulled off disk
};

/// Calls fn(a.x, b.x) for every counter x of two ChunkCounters.
template <typename A, typename B, typename Fn>
void ForEachCounter(A& a, B& b, Fn&& fn) {
  fn(a.element_reads, b.element_reads);
  fn(a.element_writes, b.element_writes);
  fn(a.ripple_steps, b.ripple_steps);
  fn(a.partitions_scanned, b.partitions_scanned);
  fn(a.partitions_pruned, b.partitions_pruned);
  fn(a.compressed_scans, b.compressed_scans);
  fn(a.compressed_payload_scans, b.compressed_payload_scans);
  fn(a.payload_partitions_pruned, b.payload_partitions_pruned);
  fn(a.grows, b.grows);
  fn(a.evictions, b.evictions);
  fn(a.promotions, b.promotions);
  fn(a.disk_reads, b.disk_reads);
  fn(a.disk_bytes_read, b.disk_bytes_read);
}

/// Plain-value copy of a ChunkStats, for the solver/capture/reporting paths
/// that want one coherent set of numbers instead of racing loads.
using ChunkStatsSnapshot = ChunkCounters<uint64_t>;

/// The unified stats read surface: one coherent counter snapshot per chunk,
/// as returned by PartitionedLayout::StatsSnapshots(). Dashboards, advisors
/// and the layout maintenance service read this.
struct StatsSnapshotRegistry {
  std::vector<ChunkStatsSnapshot> per_chunk;

  ChunkStatsSnapshot Totals() const {
    ChunkStatsSnapshot t;
    for (const ChunkStatsSnapshot& s : per_chunk) {
      ForEachCounter(t, s, [](uint64_t& sum, uint64_t v) { sum += v; });
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
struct ChunkStats : ChunkCounters<RelaxedCounter> {
  ChunkStatsSnapshot Snapshot() const {
    ChunkStatsSnapshot s;
    ForEachCounter(s, *this, [](uint64_t& out, const RelaxedCounter& c) {
      out = c.load();
    });
    return s;
  }

  void Clear() { Restore(ChunkStatsSnapshot{}); }

  /// Re-seeds the counters from a snapshot: a re-partitioned chunk carries
  /// its counts over, since they describe the data, not the geometry.
  void Restore(const ChunkStatsSnapshot& s) {
    ForEachCounter(*this, s, [](RelaxedCounter& c, uint64_t v) { c.store(v); });
  }
};

}  // namespace casper

#endif  // CASPER_STORAGE_TYPES_H_
