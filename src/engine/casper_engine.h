#ifndef CASPER_ENGINE_CASPER_ENGINE_H_
#define CASPER_ENGINE_CASPER_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/mixed_workload_runner.h"
#include "exec/scan_spec.h"
#include "layouts/layout_factory.h"
#include "layouts/partitioned.h"
#include "maintenance/layout_maintenance.h"
#include "persist/durable_store.h"
#include "persist/tier_manager.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/ops.h"

namespace casper {

/// Durable tiered storage policy (EngineOptions::persist). Setting
/// storage_dir turns persistence on: the engine writes a base image of the
/// built layout plus an append-only write-ahead journal there, and
/// re-opening the same directory (with empty keys) recovers to exactly the
/// state after the last committed write run. memory_budget_bytes additionally
/// turns on tiering: cold chunks spill to disk and read back through the
/// chunk-file scan paths (persist/ subsystem; ROADMAP item 2).
struct PersistOptions {
  /// Store root directory; empty = no persistence (pure in-memory engine).
  std::string storage_dir;

  /// Resident-byte budget for chunk data. Unset = everything stays resident;
  /// set, the TierManager demotes the coldest chunks to tier files on each
  /// maintenance cycle until the footprint fits. Must be positive when set.
  std::optional<int64_t> memory_budget_bytes;

  /// Journal fsync batching: 1 (default) = strict write-ahead durability;
  /// larger trades the last few records for write throughput.
  size_t journal_fsync_every = 1;
};

/// One cohesive construction surface for the engine — the same
/// collapse-to-one-surface move ScanSpec made for queries, now for engine
/// construction and lifecycle. Everything Open needs rides in one value:
/// the data, the layout build configuration, the execution parallelism, and
/// the online maintenance policy.
struct EngineOptions {
  /// The loaded column: keys (unsorted ok) plus payload columns aligned by
  /// row (payload[c][r] is column c+1 of row r).
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;

  /// Training workload for kCasper mode (overrides layout.training when
  /// set). May alias the workload later replayed (offline tuning) or an
  /// approximation of it (robustness experiments).
  const std::vector<Operation>* training = nullptr;

  /// Layout build configuration: mode, chunk/block geometry, ghost budget,
  /// planner knobs (layouts/layout_factory.h).
  LayoutBuildOptions layout;

  /// Execution parallelism: a non-null layout.pool is used as is; otherwise
  /// exec_threads > 1 makes the engine create and own a pool of that many
  /// threads. 0 (default) = fully serial.
  size_t exec_threads = 0;

  /// Online adaptive re-layout policy (maintenance/layout_maintenance.h).
  MaintenanceOptions maintenance;

  /// Durable tiered storage policy (see PersistOptions above).
  PersistOptions persist;
};

/// Rejects nonsensical engine configurations before Open commits to them:
/// a layout mode other than EquiWidth, EquiWidthGhost or Casper,
/// non-positive memory budgets, budgets without a storage_dir, unwritable
/// storage directories, zero chunk/block geometry, zero maintenance
/// intervals, out-of-range decay factors, and opening an existing store with
/// fresh keys (which would silently shadow the durable data). Open CHECK-fails on a bad config;
/// callers wanting a recoverable error validate first.
Status ValidateEngineOptions(const EngineOptions& options);

/// The Casper storage engine facade — the generic storage-engine API of
/// paper §6.4: "(i) scanning an entire column (or groups of columns),
/// (ii) search for a specific value, (iii) search for a specific range of
/// values, (iv) insert a new entry, and (v) update or delete an existing
/// entry". A drop-in scan/update operator for a relational engine.
///
/// The engine is the partitioned layout (layouts/partitioned.h). Open() with
/// mode == kCasper requires a training workload sample; the engine captures
/// its Frequency Model, solves the layout problem per chunk and materializes
/// the tailored layout (the A -> B -> C pipeline of paper Fig. 10).
/// EquiWidth and EquiWidthGhost give the equi-width partitionings over the
/// same data. The paper's single-store comparison points (NoOrder, Sorted,
/// the delta store) are not engines: benches build them with BuildLayout.
///
/// Parallelism: set options.exec_threads > 1 (or pass options.layout.pool)
/// and the engine threads one pool through the whole stack — frequency-model
/// capture and per-chunk layout solves at Open() time, morsel-driven shard
/// fan-out for scans/range reads, and chunk-grouped batched writes — with
/// results bit-identical to serial execution.
///
/// Maintenance: with options.maintenance.enabled, the engine owns a
/// LayoutMaintenanceService that observes every query/write issued through
/// this facade and re-partitions diverged chunks under their exclusive
/// latches while queries keep flowing (see maintenance/layout_maintenance.h
/// for the capture → detect → re-partition loop).
class CasperEngine {
 public:
  /// The unified construction surface.
  static CasperEngine Open(EngineOptions options);

  // (i) Full column scan: returns the number of live rows visited.
  uint64_t ScanAll() const;

  // (ii) Point search.
  size_t Find(Value key, std::vector<Payload>* payload = nullptr) const {
    if (maintenance_ != nullptr) {
      maintenance_->Observe({OpKind::kPointQuery, key, 0});
    }
    return engine_->PointLookup(key, payload);
  }

  // (iii) Range search — the unified ScanSpec surface. ExecuteScan is the
  // primitive (fans out over shards when a pool is attached); the named
  // methods are thin spec-building facades, bit-identical to the primitive.
  ScanPartial ExecuteScan(const ScanSpec& spec) const;
  uint64_t CountBetween(Value lo, Value hi) const;
  int64_t SumPayloadBetween(Value lo, Value hi, const std::vector<size_t>& cols) const;
  int64_t TpchQ6(Value lo, Value hi, Payload disc_lo, Payload disc_hi,
                 Payload qty_max) const;
  /// New aggregate classes: MIN/MAX of payload column `col` over [lo, hi)
  /// (0 over an empty result set or a missing column) and the floored
  /// integer average.
  uint64_t MinBetween(Value lo, Value hi, size_t col) const;
  uint64_t MaxBetween(Value lo, Value hi, size_t col) const;
  uint64_t AvgBetween(Value lo, Value hi, size_t col) const;

  // (iv) Insert.
  void Insert(Value key, const std::vector<Payload>& payload) {
    CheckPayloadWidth(payload);
    if (maintenance_ != nullptr) {
      maintenance_->Observe({OpKind::kInsert, key, 0});
    }
    const auto apply = [&] { engine_->Insert(key, payload); };
    if (durable_ == nullptr) return apply();
    const Row row{key, payload};
    durable_->CommitRows(&row, 1, apply);
  }

  /// Payload-carrying batch ingest (production write surface): inserts
  /// caller-supplied rows through the layout's grouped, latch-protected
  /// write path, fanned over the pool where the layout allows.
  void InsertRows(const std::vector<Row>& rows) {
    for (const Row& row : rows) CheckPayloadWidth(row.payload);
    if (maintenance_ != nullptr) {
      for (const Row& row : rows) {
        maintenance_->Observe({OpKind::kInsert, row.key, 0});
      }
    }
    const auto apply = [&] { engine_->InsertRows(rows.data(), rows.size(), pool_); };
    if (durable_ == nullptr) return apply();
    durable_->CommitRows(rows.data(), rows.size(), apply);
  }

  // (v) Update / delete.
  bool Update(Value old_key, Value new_key) {
    if (maintenance_ != nullptr) {
      maintenance_->Observe({OpKind::kUpdate, old_key, new_key});
    }
    return Commit({OpKind::kUpdate, old_key, new_key},
                  [&] { return engine_->UpdateKey(old_key, new_key); });
  }
  size_t Delete(Value key) {
    if (maintenance_ != nullptr) {
      maintenance_->Observe({OpKind::kDelete, key, 0});
    }
    return Commit({OpKind::kDelete, key, 0}, [&] { return engine_->Delete(key); });
  }

  /// Mixed-workload admission: reads and writes execute together as chunk
  /// groups on the engine's pool (MixedWorkloadRunner), overlapped wherever
  /// they share no written chunk (reads during ingest, chunk-disjoint
  /// writes in parallel), with results bit-identical to a single-threaded
  /// serial replay of `ops`. Each chunk group that writes is stamped with a
  /// commit timestamp from this engine's oracle. A read-only stream is the
  /// inter-query case: every query overlaps every other on the shared pool,
  /// and nothing is journaled.
  MixedResult RunMixed(const std::vector<Operation>& ops);

  /// Commit-timestamp oracle shared by mixed runs; it stamps writing chunk
  /// groups.
  TimestampOracle& oracle() { return *oracle_; }

  LayoutMode mode() const { return engine_->mode(); }
  size_t num_rows() const { return engine_->num_rows(); }
  LayoutMemoryStats MemoryStats() const { return engine_->MemoryStats(); }

  /// Pool used for parallel execution; nullptr when running serial.
  ThreadPool* pool() const { return pool_; }

  /// The adaptive re-layout service; nullptr when maintenance is disabled.
  LayoutMaintenanceService* maintenance() const { return maintenance_.get(); }

  /// Durable store handle; nullptr unless persist.storage_dir is set.
  persist::DurableStore* durable() const { return durable_.get(); }

  /// Chunk tiering service; nullptr unless persist.storage_dir is set. Rides
  /// the maintenance cycle cadence when maintenance is enabled; always
  /// drivable directly via tier()->RunCycle().
  persist::TierManager* tier() const { return tier_.get(); }

  /// Forces batched journal records down to disk (journal_fsync_every > 1).
  Status FlushWal() {
    return durable_ != nullptr ? durable_->Flush() : Status::Ok();
  }

  PartitionedLayout& layout() { return *engine_; }
  const PartitionedLayout& layout() const { return *engine_; }

 private:
  /// Aborts on a row whose payload width is not the table's. Runs before a
  /// write is observed or journaled, so a mis-sized row never reaches the
  /// journal, where every later Open would replay it.
  void CheckPayloadWidth(const std::vector<Payload>& payload) const {
    CASPER_CHECK_MSG(payload.size() == engine_->num_payload_columns(),
                     "payload width " << payload.size()
                                      << " != table payload columns "
                                      << engine_->num_payload_columns());
  }

  /// Runs one write through `apply`; a durable engine journals `op` first,
  /// in one critical section with the apply (DurableStore::CommitOps).
  template <typename Apply>
  auto Commit(const Operation& op, Apply&& apply) -> decltype(apply()) {
    if (durable_ == nullptr) return apply();
    return durable_->CommitOps(&op, 1, apply);
  }

  CasperEngine(std::unique_ptr<PartitionedLayout> engine,
               std::unique_ptr<ThreadPool> owned_pool, ThreadPool* pool)
      : engine_(std::move(engine)),
        owned_pool_(std::move(owned_pool)),
        pool_(pool),
        oracle_(std::make_unique<TimestampOracle>()) {}

  std::unique_ptr<PartitionedLayout> engine_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< set when the engine made its own
  ThreadPool* pool_ = nullptr;              ///< may alias owned_pool_ or a caller's
  /// Stamps mixed-run write commits (unique_ptr keeps the engine movable —
  /// the oracle's atomic counter is not).
  std::unique_ptr<TimestampOracle> oracle_;
  /// Write-ahead journal + store layout; facade writes log here first.
  std::unique_ptr<persist::DurableStore> durable_;
  /// Tiering service; declared before maintenance_ so the maintenance
  /// thread (whose cycle hook calls tier_->RunCycle()) joins first.
  std::unique_ptr<persist::TierManager> tier_;
  /// Declared last: destroyed first, so the background thread joins while
  /// the layout it re-partitions (and the tier manager it drives) is still
  /// alive.
  std::unique_ptr<LayoutMaintenanceService> maintenance_;
};

}  // namespace casper

#endif  // CASPER_ENGINE_CASPER_ENGINE_H_
