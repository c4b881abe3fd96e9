#include "engine/casper_engine.h"

#include "persist/io.h"
#include "persist/journal.h"
#include "persist/manifest.h"
#include "persist/store.h"
#include "util/status.h"

namespace casper {

Status ValidateEngineOptions(const EngineOptions& options) {
  if (!IsPartitionedMode(options.layout.mode)) {
    return Status::InvalidArgument(
        "the engine needs a partitioned layout mode (EquiWidth, "
        "EquiWidthGhost or Casper); build a baseline with BuildLayout");
  }
  if (options.layout.chunk_values == 0) {
    return Status::InvalidArgument("layout.chunk_values must be positive");
  }
  if (options.layout.block_values == 0) {
    return Status::InvalidArgument("layout.block_values must be positive");
  }
  if (options.maintenance.enabled) {
    if (options.maintenance.background &&
        options.maintenance.capture_interval.count() <= 0) {
      return Status::InvalidArgument(
          "maintenance.capture_interval must be positive for background mode");
    }
    // Written so that NaN fails too (every comparison with NaN is false).
    if (!(options.maintenance.decay >= 0.0 && options.maintenance.decay <= 1.0)) {
      return Status::InvalidArgument("maintenance.decay must be in [0, 1]");
    }
  }
  const PersistOptions& p = options.persist;
  if (p.memory_budget_bytes.has_value() && *p.memory_budget_bytes <= 0) {
    return Status::InvalidArgument(
        "persist.memory_budget_bytes must be positive when set");
  }
  if (p.storage_dir.empty()) {
    if (p.memory_budget_bytes.has_value()) {
      return Status::InvalidArgument(
          "persist.memory_budget_bytes needs persist.storage_dir (tier files "
          "have nowhere to go)");
    }
    return Status::Ok();
  }
  if (p.journal_fsync_every == 0) {
    return Status::InvalidArgument(
        "persist.journal_fsync_every must be >= 1 (0 would never sync)");
  }
  const persist::StoreLayout store(p.storage_dir);
  Status s = store.EnsureLayout();
  if (!s.ok()) return s;
  s = store.ProbeWritable();
  if (!s.ok()) return s;
  if (persist::FileExists(store.ManifestPath()) && !options.keys.empty()) {
    return Status::InvalidArgument(
        "storage_dir already holds a store; refusing to overwrite it — Open "
        "with empty keys to recover, or point at a fresh directory");
  }
  return Status::Ok();
}

CasperEngine CasperEngine::Open(EngineOptions options) {
  const Status valid = ValidateEngineOptions(options);
  CASPER_CHECK_MSG(valid.ok(), valid.ToString());

  LayoutBuildOptions build = options.layout;
  if (options.training != nullptr) build.training = options.training;
  // One pool serves the whole stack: frequency-model capture and per-chunk
  // layout solves during the build, then shard fan-out at query time.
  std::unique_ptr<ThreadPool> owned;
  if (build.pool == nullptr && options.exec_threads > 1) {
    owned = std::make_unique<ThreadPool>(options.exec_threads);
    build.pool = owned.get();
  }
  ThreadPool* pool = build.pool;

  const bool persistent = !options.persist.storage_dir.empty();
  const persist::StoreLayout store(options.persist.storage_dir);
  const bool recovering =
      persistent && persist::FileExists(store.ManifestPath());

  std::unique_ptr<PartitionedLayout> layout;
  std::vector<persist::JournalRecord> replay;
  uint64_t next_seq = 0;
  if (recovering) {
    // Recovery: rebuild the table from the base chunk files through the same
    // deterministic Build path the original open used, then replay the
    // journal's valid prefix below (after construction, at the layout level —
    // replayed writes must not be re-journaled or observed).
    persist::Manifest manifest;
    persist::RecoveredTableData data;
    const PartitionedTable::Options topts = PartitionedTableOptionsFor(build);
    Status s = persist::LoadStore(store, &manifest, &data, topts.chunk.spare_tail);
    CASPER_CHECK_MSG(s.ok(), "store recovery failed: " << s.ToString());
    CASPER_CHECK_MSG(
        manifest.layout_mode == static_cast<uint32_t>(build.mode),
        "store was created with a different layout mode");
    PartitionedTable table =
        PartitionedTable::Build(std::move(data.keys), std::move(data.payload),
                                std::move(data.specs), topts);
    layout = std::make_unique<PartitionedLayout>(build.mode, std::move(table));

    uint64_t valid_bytes = 0;
    s = persist::ReadJournal(store.JournalPath(), &replay, &valid_bytes);
    CASPER_CHECK_MSG(s.ok(), "journal unreadable: " << s.ToString());
    // Discard the torn tail so the reopened writer appends after the last
    // valid record.
    s = persist::TruncateFile(store.JournalPath(), valid_bytes);
    CASPER_CHECK_MSG(s.ok(), "journal truncation failed: " << s.ToString());
    next_seq = replay.size();
  } else {
    layout = BuildPartitionedLayout(build, std::move(options.keys),
                                    std::move(options.payload));
  }

  CasperEngine engine(std::move(layout), std::move(owned), pool);

  PartitionedLayout& partitioned = *engine.engine_;
  if (persistent) {
    if (recovering) {
      for (const persist::JournalRecord& rec : replay) {
        if (rec.type == persist::JournalRecordType::kRowsRun) {
          partitioned.InsertRows(rec.rows.data(), rec.rows.size(), pool);
        } else {
          partitioned.ApplyBatch(rec.ops.data(), rec.ops.size(), pool);
        }
      }
    } else {
      // Fresh store: a leftover journal (crash before the manifest committed)
      // belongs to no store — the manifest rename is the creation commit
      // point, so everything before it is discarded on re-open.
      Status s = persist::RemoveFileIfExists(store.JournalPath());
      CASPER_CHECK_MSG(s.ok(), "stale journal removal failed: " << s.ToString());
      s = persist::CreateStore(store, partitioned.table(),
                               static_cast<uint32_t>(build.mode),
                               build.chunk_values);
      CASPER_CHECK_MSG(s.ok(), "store creation failed: " << s.ToString());
    }
    engine.durable_ = std::make_unique<persist::DurableStore>(store);
    const Status s = engine.durable_->OpenJournal(
        next_seq, options.persist.journal_fsync_every);
    CASPER_CHECK_MSG(s.ok(), "journal open failed: " << s.ToString());

    persist::TierOptions topt;
    topt.memory_budget_bytes = options.persist.memory_budget_bytes.value_or(0);
    engine.tier_ = std::make_unique<persist::TierManager>(
        &partitioned.mutable_table(), store, topt);
  }

  if (options.maintenance.enabled) {
    engine.maintenance_ = std::make_unique<LayoutMaintenanceService>(
        &partitioned, options.maintenance, ResolvePlannerOptions(build),
        build.block_values);
    if (engine.tier_ != nullptr) {
      // Tiering rides the maintenance cadence: every cycle (foreground or
      // background) ends with a demote/promote pass. The raw pointer is
      // stable across the engine move below (unique_ptr target).
      persist::TierManager* tier = engine.tier_.get();
      engine.maintenance_->SetCycleHook([tier] { tier->RunCycle(); });
    }
    if (options.maintenance.background) engine.maintenance_->Start();
  }
  return engine;
}

ScanPartial CasperEngine::ExecuteScan(const ScanSpec& spec) const {
  if (maintenance_ != nullptr) maintenance_->ObserveSpec(spec);
  return ExecuteScanOnPool(*engine_, spec, pool_);
}

uint64_t CasperEngine::ScanAll() const {
  return ExecuteScan(ScanSpec::FullScan()).count;
}

uint64_t CasperEngine::CountBetween(Value lo, Value hi) const {
  return ExecuteScan(ScanSpec::Count(lo, hi)).count;
}

int64_t CasperEngine::SumPayloadBetween(Value lo, Value hi,
                                        const std::vector<size_t>& cols) const {
  return ExecuteScan(ScanSpec::Sum(lo, hi, cols)).SumResult();
}

int64_t CasperEngine::TpchQ6(Value lo, Value hi, Payload disc_lo, Payload disc_hi,
                             Payload qty_max) const {
  return ExecuteScan(ScanSpec::Q6(lo, hi, disc_lo, disc_hi, qty_max)).SumResult();
}

uint64_t CasperEngine::MinBetween(Value lo, Value hi, size_t col) const {
  const ScanSpec spec = ScanSpec::Min(lo, hi, col);
  return ExecuteScan(spec).Result(spec.agg);
}

uint64_t CasperEngine::MaxBetween(Value lo, Value hi, size_t col) const {
  const ScanSpec spec = ScanSpec::Max(lo, hi, col);
  return ExecuteScan(spec).Result(spec.agg);
}

uint64_t CasperEngine::AvgBetween(Value lo, Value hi, size_t col) const {
  const ScanSpec spec = ScanSpec::Avg(lo, hi, col);
  return ExecuteScan(spec).Result(spec.agg);
}

MixedResult CasperEngine::RunMixed(const std::vector<Operation>& ops) {
  if (maintenance_ != nullptr) maintenance_->ObserveAll(ops);
  // Journaled as one run, before any of it applies: replay of the record is
  // bit-identical to the run because mixed admission commits writes in
  // serial-equivalent order (CommitOps journals only the write operations,
  // and holds the journal across the run only when there are any).
  const auto run = [&] {
    return MixedWorkloadRunner(pool_, oracle_.get()).Run(*engine_, ops);
  };
  if (durable_ == nullptr) return run();
  return durable_->CommitOps(ops.data(), ops.size(), run);
}

}  // namespace casper
