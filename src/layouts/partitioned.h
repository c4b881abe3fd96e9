#ifndef CASPER_LAYOUTS_PARTITIONED_H_
#define CASPER_LAYOUTS_PARTITIONED_H_

#include <utility>
#include <vector>

#include "layouts/layout_engine.h"
#include "storage/table.h"
#include "util/status.h"

namespace casper {

class ThreadPool;

/// Outcome of a batched operation run (PartitionedLayout::ApplyBatch).
struct BatchResult {
  size_t inserts = 0;  ///< rows inserted (inserts always succeed)
  size_t deletes = 0;  ///< rows actually deleted
  size_t updates = 0;  ///< updates that found their key
  /// Rolling sum over read-op results, same mixing as the harness checksum
  /// (point-lookup match counts, range counts, range sums).
  uint64_t query_checksum = 0;
};

/// Applies one operation to any layout through the per-op surface, folding
/// the outcome into `result` exactly as ApplyBatch does (ApplyBatch's
/// barriers, and the one-by-one side of the equivalence tests). Inserts use
/// KeyDerivedPayload; range aggregates (sum/min/max/avg) use `sum_cols` —
/// callers applying a whole batch compute it ONCE (DefaultSumColumns) and
/// pass it through instead of re-deriving it per op.
inline void ApplyOperation(LayoutEngine& engine, const Operation& op,
                           BatchResult* result,
                           const std::vector<size_t>& sum_cols) {
  switch (op.kind) {
    case OpKind::kPointQuery:
      result->query_checksum += engine.PointLookup(op.a, nullptr);
      break;
    case OpKind::kRangeCount:
      result->query_checksum += engine.CountRange(op.a, op.b);
      break;
    case OpKind::kRangeSum:
    case OpKind::kRangeMin:
    case OpKind::kRangeMax:
    case OpKind::kRangeAvg: {
      const ScanSpec spec = SpecForOperation(op, sum_cols);
      result->query_checksum += engine.ExecuteScan(spec).Result(spec.agg);
      break;
    }
    case OpKind::kInsert: {
      std::vector<Payload> payload;
      KeyDerivedPayload(op.a, engine.num_payload_columns(), &payload);
      engine.Insert(op.a, payload);
      ++result->inserts;
      break;
    }
    case OpKind::kDelete:
      result->deletes += engine.Delete(op.a);
      break;
    case OpKind::kUpdate:
      result->updates += engine.UpdateKey(op.a, op.b) ? 1 : 0;
      break;
  }
}

/// Single-op convenience: derives DefaultSumColumns itself.
inline void ApplyOperation(LayoutEngine& engine, const Operation& op,
                           BatchResult* result) {
  ApplyOperation(engine, op, result, DefaultSumColumns(engine));
}

/// Range-partitioned layout family: equi-width partitioning, equi-width with
/// ghost values, and Casper's workload-tailored layout all share this
/// engine — they differ only in the ChunkLayoutSpecs the factory feeds the
/// underlying PartitionedTable (paper §7: "Casper integrates all tested
/// column layout strategies"). This is the engine: the CasperEngine facade,
/// the mixed runner, maintenance and durable storage all hold it directly.
/// Its column chunks are the independent unit of layout and of execution
/// (paper §6.3): one shard and one latch per chunk. Batched writes are its
/// own members: ApplyBatch and InsertRows reduce to
/// PartitionedTable::ApplyWriteRun, which routes a run once and commits it
/// chunk group by chunk group, fanned over a pool.
class PartitionedLayout final : public LayoutEngine {
 public:
  PartitionedLayout(LayoutMode mode, PartitionedTable table)
      : mode_(mode), table_(std::move(table)) {}

  LayoutMode mode() const override { return mode_; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override {
    return table_.PointLookup(key, payload);
  }
  void Insert(Value key, const std::vector<Payload>& payload) override {
    table_.Insert(key, payload);
  }
  size_t Delete(Value key) override { return table_.Delete(key); }
  bool UpdateKey(Value old_key, Value new_key) override {
    return table_.UpdateKey(old_key, new_key);
  }

  // Sharded read surface: one shard per column chunk (chunks are the
  // independent layout/tuning unit of paper §4.4, and here the independent
  // execution unit too). A chunk outside the key range contributes 0 after
  // an O(1) bounds check, before its latch is taken.
  size_t NumShards() const override { return table_.num_chunks(); }
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override {
    return table_.ScanSpecInChunk(shard, spec);
  }

  /// Applies `n` operations with results identical to applying them in order
  /// one-by-one (inserts take key-derived payloads). Each maximal run of
  /// inserts/deletes goes to PartitionedTable::ApplyWriteRun as one call,
  /// its chunk groups fanned over `pool`; queries and updates are barriers
  /// applied through ApplyOperation.
  BatchResult ApplyBatch(const Operation* ops, size_t n, ThreadPool* pool = nullptr) {
    BatchResult result;
    const std::vector<size_t> sum_cols = DefaultSumColumns(*this);
    const size_t cols = num_payload_columns();
    std::vector<BatchWrite> run;
    auto flush_run = [&] {
      if (run.empty()) return;
      result.deletes += table_.ApplyWriteRun(run, pool);
      run.clear();
    };
    for (size_t i = 0; i < n; ++i) {
      const Operation& op = ops[i];
      if (op.kind != OpKind::kInsert && op.kind != OpKind::kDelete) {
        flush_run();
        ApplyOperation(*this, op, &result, sum_cols);
        continue;
      }
      BatchWrite w;
      w.key = op.a;
      w.is_insert = op.kind == OpKind::kInsert;
      if (w.is_insert) {
        KeyDerivedPayload(op.a, cols, &w.payload);
        ++result.inserts;
      }
      run.push_back(std::move(w));
    }
    flush_run();
    return result;
  }

  /// Payload-carrying batch ingest (the production write surface, vs the
  /// Operation stream's key-derived payloads): inserts `n` caller-supplied
  /// rows as one ApplyWriteRun, with results identical to calling
  /// Insert(row.key, row.payload) in order. Every row's width is checked
  /// before any row applies.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr) {
    const size_t cols = num_payload_columns();
    std::vector<BatchWrite> run(n);
    for (size_t i = 0; i < n; ++i) {
      CASPER_CHECK_MSG(rows[i].payload.size() == cols,
                       "row payload width != table payload columns");
      run[i].key = rows[i].key;
      run[i].is_insert = true;
      run[i].payload = rows[i].payload;
    }
    table_.ApplyWriteRun(run, pool);
  }

  size_t num_rows() const override { return table_.num_rows(); }
  size_t num_payload_columns() const override {
    return table_.num_payload_columns();
  }
  LayoutMemoryStats MemoryStats() const override {
    LayoutMemoryStats s;
    const size_t row_bytes =
        sizeof(Value) + table_.num_payload_columns() * sizeof(Payload);
    s.data_bytes = table_.num_rows() * row_bytes;
    s.total_bytes = table_.MemoryBytes();
    return s;
  }
  void ValidateInvariants() const override { table_.ValidateInvariants(); }

  /// One coherent per-chunk counter snapshot: the stats surface that
  /// dashboards, advisors and the layout maintenance service read.
  StatsSnapshotRegistry StatsSnapshots() const { return table_.StatsSnapshots(); }

  /// Hash of the partition geometry (boundaries and capacities): stable
  /// across reads, changed by online re-partitioning.
  uint64_t LayoutFingerprint() const { return table_.LayoutFingerprint(); }

  /// Maintenance entry point: rebuild chunk c's partitioning in place under
  /// its exclusive latch (queries keep flowing on every other chunk).
  bool RepartitionChunk(size_t c, const PartitionedTable::ChunkLayoutSpec& spec) {
    return table_.RepartitionChunk(c, spec);
  }

  const PartitionedTable& table() const { return table_; }
  PartitionedTable& mutable_table() { return table_; }

 private:
  LayoutMode mode_;
  PartitionedTable table_;
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_PARTITIONED_H_
