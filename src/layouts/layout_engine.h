#ifndef CASPER_LAYOUTS_LAYOUT_ENGINE_H_
#define CASPER_LAYOUTS_LAYOUT_ENGINE_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/chunk_latch.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

/// The six operation modes evaluated in the paper (§7, Fig. 12):
enum class LayoutMode {
  kNoOrder,        ///< plain column-store, insertion order, no write opt.
  kSorted,         ///< fully sorted leading column
  kDeltaStore,     ///< sorted main + delta buffer (state of the art)
  kEquiWidth,      ///< range-partitioned, equal-width partitions
  kEquiWidthGhost, ///< equal-width partitions + evenly spread ghost values
  kCasper,         ///< workload-tailored partitions + Eq. 18 ghost values
};

std::string_view LayoutModeName(LayoutMode mode);

/// True for the range-partitioned modes (EquiWidth, EquiWidthGhost, Casper):
/// the ones PartitionedLayout implements and the engine facade opens.
inline bool IsPartitionedMode(LayoutMode mode) {
  return mode == LayoutMode::kEquiWidth || mode == LayoutMode::kEquiWidthGhost ||
         mode == LayoutMode::kCasper;
}

/// Memory-amplification report (paper's three-way tradeoff).
struct LayoutMemoryStats {
  size_t data_bytes = 0;   ///< live rows
  size_t total_bytes = 0;  ///< including ghost slots / delta buffers

  double Amplification() const {
    return data_bytes == 0 ? 1.0
                           : static_cast<double>(total_bytes) /
                                 static_cast<double>(data_bytes);
  }
};

/// Deterministic payload for rows inserted from an Operation stream (the
/// harness replay, ApplyOperation, PartitionedLayout::ApplyBatch):
/// payload[c] = (|key| * (c + 1)) % 10000. Duplicate keys carry identical
/// payloads, so any reordering of physical duplicates (across layouts or
/// batching strategies) is unobservable.
void KeyDerivedPayload(Value key, size_t num_columns, std::vector<Payload>* out);

/// Storage-engine access-path interface shared by every layout — the
/// per-operation replay surface of the HAP benchmark (paper §7.1) that the
/// figures drive one operation at a time. All layouts store the same logical
/// table: key column a0 plus payload columns.
///
/// Every range read goes through one virtual, ScanSpecShard. A shard is the
/// unit of parallel read work (paper §6.3): the partitioned layouts have one
/// shard per column chunk, and NoOrder, Sorted and the delta store are one
/// shard each — a single store is a single chunk. ExecuteScan is the
/// in-order merge of every shard, and ExecuteScanOnPool (exec/) runs the
/// shards of a partitioned layout's routed chunk window on a pool.
///
/// Concurrency: every read and write path is routed through a shared/
/// exclusive latch (chunk_latch.h) — per chunk for the partitioned layouts,
/// whole-engine for the single-store ones — so reads may overlap ingest.
/// Each shard is read under one hold of its latch, so a shard's partial is
/// always a state that shard was in.
///
/// The engine facade and the mixed runner hold the partitioned layout
/// (layouts/partitioned.h) directly, and batched writes are its own members;
/// NoOrder, Sorted and the delta store are the paper's comparison points,
/// built through BuildLayout and replayed through this interface.
class LayoutEngine {
 public:
  virtual ~LayoutEngine() = default;

  virtual LayoutMode mode() const = 0;
  std::string_view name() const { return LayoutModeName(mode()); }

  /// Q1: SELECT a1..ak WHERE a0 = key. Returns match count; fills
  /// `payload` (may be nullptr) with the first match's payload columns.
  virtual size_t PointLookup(Value key, std::vector<Payload>* payload) const = 0;

  // --- The unified scan/aggregate surface (exec/scan_spec.h) ---------------
  // Every range read — count, sum, Q6, min/max/avg, full scans, and any
  // composition of key range + payload predicates + aggregate — evaluates
  // through this ONE virtual. The per-shape methods below are thin
  // non-virtual wrappers that build specs; adding a query shape means
  // building a spec value, not growing the virtual surface of six layouts.

  /// Number of independently scannable shards: one per column chunk for the
  /// partitioned layouts, one for the single-store layouts. Fixed for the
  /// engine's lifetime (chunk routing bounds are build-time constants).
  virtual size_t NumShards() const { return 1; }

  /// The shard-s slice of ExecuteScan, evaluated under one hold of the
  /// shard's latch. Merging all shards (in any order) reproduces the
  /// whole-engine answer, because ScanPartial merging is associative. Reads
  /// of distinct shards touch disjoint logical state (access counters are
  /// relaxed atomics), so shards — and whole read queries — may run
  /// concurrently.
  virtual ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const = 0;

  /// Evaluates `spec` over the whole engine: the merge of every shard in
  /// index order.
  ScanPartial ExecuteScan(const ScanSpec& spec) const;

  // --- Legacy per-shape wrappers (bit-identical spec facades) --------------

  /// Q2: SELECT count(*) WHERE a0 in [lo, hi).
  uint64_t CountRange(Value lo, Value hi) const {
    return ExecuteScan(ScanSpec::Count(lo, hi)).count;
  }

  /// Q3: SELECT sum(a_{c1} + a_{c2} + ...) WHERE a0 in [lo, hi).
  int64_t SumPayloadRange(Value lo, Value hi,
                          const std::vector<size_t>& cols) const {
    return ExecuteScan(ScanSpec::Sum(lo, hi, cols)).SumResult();
  }

  /// TPC-H Q6 shape: SELECT sum(price * discount) WHERE a0 (shipdate) in
  /// [lo, hi) AND discount in [disc_lo, disc_hi] AND quantity < qty_max.
  /// Columns: 0 = quantity, 1 = discount, 2 = extended price (by convention
  /// of the TPC-H-like workload; tables with fewer columns return 0 — the
  /// spec's column references fall out of range).
  int64_t TpchQ6(Value lo, Value hi, Payload disc_lo, Payload disc_hi,
                 Payload qty_max) const {
    return ExecuteScan(ScanSpec::Q6(lo, hi, disc_lo, disc_hi, qty_max))
        .SumResult();
  }

  /// Q4: INSERT.
  virtual void Insert(Value key, const std::vector<Payload>& payload) = 0;

  /// Q5: DELETE one row WHERE a0 = key. Returns rows deleted.
  virtual size_t Delete(Value key) = 0;

  /// Q6: UPDATE a0 = new_key WHERE a0 = old_key (one row).
  virtual bool UpdateKey(Value old_key, Value new_key) = 0;

  virtual size_t num_rows() const = 0;
  virtual size_t num_payload_columns() const = 0;
  virtual LayoutMemoryStats MemoryStats() const = 0;

  /// Structural self-check (test hook); default no-op.
  virtual void ValidateInvariants() const {}

 protected:
  /// Whole-engine latch for the single-store layouts; PartitionedLayout
  /// latches per chunk and leaves this unused.
  mutable ChunkLatch engine_latch_;
};

/// Payload columns aggregated by kRangeSum in batched execution and by the
/// harness's Q3: the first two, clipped to the table's width.
std::vector<size_t> DefaultSumColumns(const LayoutEngine& engine);

}  // namespace casper

#endif  // CASPER_LAYOUTS_LAYOUT_ENGINE_H_
