#ifndef CASPER_LAYOUTS_PARTITIONED_H_
#define CASPER_LAYOUTS_PARTITIONED_H_

#include <utility>
#include <vector>

#include "layouts/layout_engine.h"
#include "storage/table.h"

namespace casper {

struct MixedResult;
class ThreadPool;

/// Range-partitioned layout family: equi-width partitioning, equi-width with
/// ghost values, and Casper's workload-tailored layout all share this
/// engine — they differ only in the ChunkLayoutSpecs the factory feeds the
/// underlying PartitionedTable (paper §7: "Casper integrates all tested
/// column layout strategies"). This is the engine: the CasperEngine facade,
/// the mixed runner, maintenance and durable storage all hold it directly.
/// Its column chunks are the independent unit of layout and of execution
/// (paper §6.3): one shard and one latch per chunk. An operation stream runs
/// through the mixed runner (ApplyBatch), and payload-carrying rows through
/// PartitionedTable::InsertRows.
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
  /// one by one (inserts take key-derived payloads): MixedWorkloadRunner(pool)
  /// over them, in order without a pool and as chunk groups with one. Defined
  /// with the runner (exec/mixed_workload_runner.cc), whose header includes
  /// this one.
  MixedResult ApplyBatch(const Operation* ops, size_t n, ThreadPool* pool = nullptr);

  /// Payload-carrying batch ingest (the production write surface, vs the
  /// Operation stream's key-derived payloads): PartitionedTable::InsertRows,
  /// with results identical to calling Insert(row.key, row.payload) in
  /// order.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr) {
    table_.InsertRows(rows, n, pool);
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
