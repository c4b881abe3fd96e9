#ifndef CASPER_LAYOUTS_LAYOUT_ENGINE_H_
#define CASPER_LAYOUTS_LAYOUT_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/chunk_latch.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

struct ChunkEncoding;
class ThreadPool;

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

/// Outcome of a batched operation run (LayoutEngine::ApplyBatch).
struct BatchResult {
  size_t inserts = 0;  ///< rows inserted (inserts always succeed)
  size_t deletes = 0;  ///< rows actually deleted
  size_t updates = 0;  ///< updates that found their key
  /// Rolling sum over read-op results, same mixing as the harness checksum
  /// (point-lookup match counts, range counts, range sums).
  uint64_t query_checksum = 0;
};

/// Deterministic payload for rows inserted through the batched API:
/// payload[c] = (|key| * (c + 1)) % 10000, the harness's key-derived scheme.
/// Duplicate keys carry identical payloads, so any reordering of physical
/// duplicates (across layouts or batching strategies) is unobservable.
void KeyDerivedPayload(Value key, size_t num_columns, std::vector<Payload>* out);

/// Storage-engine access-path interface shared by every layout — the
/// "physical benchmark" surface of the HAP benchmark (paper §7.1). All
/// layouts store the same logical table: key column a0 plus payload columns.
///
/// Beyond the per-operation surface, every layout exposes one read virtual,
/// ScanSpecShard, and one batched write virtual, ApplyWriteRun, that
/// ApplyBatch and InsertRows both reduce to. A shard is the unit of parallel
/// read work (paper §6.3): the partitioned layouts have one shard per column
/// chunk, and NoOrder, Sorted and the delta store are one shard each — a
/// single store is a single chunk. ExecuteScan is the in-order merge of
/// every shard, and ExecuteScanOnPool (exec/) runs the same shards on a
/// pool.
///
/// Concurrency: every read and write path is routed through an epoch/latch
/// (chunk_latch.h) — per chunk for the partitioned layouts, whole-engine for
/// the single-store ones — so reads may overlap ingest and chunk-disjoint
/// write runs commit in parallel. Each shard is read under one hold of its
/// latch, so a shard's partial is always a state that shard was in. The
/// latch-domain surface below exposes the conflict structure to schedulers
/// (exec/mixed_workload_runner) that need deterministic, serial-equivalent
/// mixed execution.
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

  /// Unified stats read surface: one coherent per-chunk counter snapshot.
  /// Dashboards, advisors, and the layout maintenance service all consume
  /// this instead of per-layout snapshot loops. Layouts without per-chunk
  /// accounting return an empty registry.
  virtual StatsSnapshotRegistry StatsSnapshots() const { return {}; }

  /// Hash of the physical layout geometry (partition boundaries and
  /// capacities). Stable across reads; changed by online re-partitioning.
  /// Layouts without tunable geometry return 0.
  virtual uint64_t LayoutFingerprint() const { return 0; }

  // --- Concurrency-control surface (epoch/latch domains) -------------------

  /// Number of independent latch domains. The partitioned layouts expose one
  /// domain per column chunk; NoOrder, Sorted and the delta store have a
  /// single domain guarding the whole store. Reads and writes on distinct
  /// domains never conflict; the domain count is fixed for the engine's
  /// lifetime (chunk routing bounds are build-time constants).
  virtual size_t NumLatchDomains() const { return 1; }

  /// Latch domain a write on `key` routes to.
  virtual size_t WriteDomain(Value key) const {
    (void)key;
    return 0;
  }

  /// Appends the latch domains a read over [lo, hi) may touch (point reads
  /// pass hi == lo + 1). Conservative supersets are allowed.
  virtual void ReadDomains(Value lo, Value hi, std::vector<size_t>* out) const {
    (void)lo;
    (void)hi;
    out->push_back(0);
  }

  /// The epoch/latch protecting `domain` — for epoch sniffing
  /// (ChunkLatch::WriteActive) and snapshot validation (ChunkSnapshot);
  /// the engine's own paths already latch internally.
  virtual const ChunkLatch& DomainLatch(size_t domain) const {
    (void)domain;
    return engine_latch_;
  }

  // --- Batched write surface -----------------------------------------------

  /// Applies a run of inserts (with their payloads) and deletes with results
  /// identical to calling Insert/Delete on them in order, and returns the
  /// rows actually deleted. This is the one batched write every layout
  /// implements: partitioned layouts group the run by destination chunk and
  /// may fan chunk groups out over `pool`; the single-store layouts apply it
  /// under one exclusive hold of the engine latch.
  virtual size_t ApplyWriteRun(const std::vector<BatchWrite>& run,
                               ThreadPool* pool) = 0;

  /// Applies `n` operations with results identical to applying them in order
  /// one-by-one (inserts take key-derived payloads). Each maximal run of
  /// inserts/deletes goes to ApplyWriteRun as one call; queries and updates
  /// are barriers applied through ApplyOperation.
  BatchResult ApplyBatch(const Operation* ops, size_t n, ThreadPool* pool = nullptr);
  BatchResult ApplyBatch(const std::vector<Operation>& ops,
                         ThreadPool* pool = nullptr) {
    return ApplyBatch(ops.data(), ops.size(), pool);
  }

  /// Payload-carrying batch ingest (the production write surface, vs the
  /// Operation stream's key-derived payloads): inserts `n` caller-supplied
  /// rows as one ApplyWriteRun, with results identical to calling
  /// Insert(row.key, row.payload) in order. Every row's width is checked
  /// before any row applies.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr);
  void InsertRows(const std::vector<Row>& rows, ThreadPool* pool = nullptr) {
    InsertRows(rows.data(), rows.size(), pool);
  }

 protected:
  /// Whole-engine epoch/latch for single-domain layouts. Implementations
  /// with finer-grained protection (PartitionedLayout) override the domain
  /// surface and leave this unused.
  mutable ChunkLatch engine_latch_;
};

/// Applies one operation through the per-op surface, folding the outcome
/// into `result` exactly as ApplyBatch does (shared by ApplyBatch's
/// barriers and the equivalence tests). Inserts use KeyDerivedPayload;
/// range aggregates (sum/min/max/avg) use `sum_cols` — callers applying a
/// whole batch compute it ONCE (DefaultSumColumns) and pass it through
/// instead of re-deriving it per op.
void ApplyOperation(LayoutEngine& engine, const Operation& op, BatchResult* result,
                    const std::vector<size_t>& sum_cols);

/// Single-op convenience: derives DefaultSumColumns itself.
void ApplyOperation(LayoutEngine& engine, const Operation& op, BatchResult* result);

/// Payload columns aggregated by kRangeSum in batched execution and by the
/// harness's Q3: the first two, clipped to the table's width.
std::vector<size_t> DefaultSumColumns(const LayoutEngine& engine);

/// The compressed-cache encoding of one single-store layout (NoOrder, Sorted,
/// the delta store's main store): FoR keys at 4096-row frames, plus each
/// payload column through AdvisePayloadEncoding profiled as read-only (these
/// layouts keep no read/write counters; the cache's read-mostly vote already
/// gated the build). The columns are dense, so packed row == position and no
/// live-row prefix is built. Every position is encoded: a delta store's
/// tombstoned positions carry junk the evaluator never consults, because the
/// tombstone filter precedes packed refinement.
std::shared_ptr<const ChunkEncoding> EncodeSingleStore(
    const std::vector<Value>& keys,
    const std::vector<std::vector<Payload>>& payload);

}  // namespace casper

#endif  // CASPER_LAYOUTS_LAYOUT_ENGINE_H_
