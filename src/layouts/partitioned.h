#ifndef CASPER_LAYOUTS_PARTITIONED_H_
#define CASPER_LAYOUTS_PARTITIONED_H_

#include <vector>

#include "layouts/layout_engine.h"
#include "storage/table.h"

namespace casper {

/// Range-partitioned layout family: equi-width partitioning, equi-width with
/// ghost values, and Casper's workload-tailored layout all share this
/// engine — they differ only in the ChunkLayoutSpecs the factory feeds the
/// underlying PartitionedTable (paper §7: "Casper integrates all tested
/// column layout strategies").
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

  // Concurrency-control surface: one latch domain per column chunk — the
  // unit at which reads overlap ingest and disjoint write runs commit in
  // parallel (PartitionedTable latches every path internally).
  size_t NumLatchDomains() const override { return table_.num_chunks(); }
  size_t WriteDomain(Value key) const override { return table_.ChunkFor(key); }
  void ReadDomains(Value lo, Value hi, std::vector<size_t>* out) const override {
    if (lo >= hi) return;
    // Chunks cover contiguous sorted key ranges, so the overlap set is the
    // contiguous window [ChunkFor(lo), ChunkFor(hi - 1)] — two binary
    // searches instead of an O(num_chunks) scan per range read.
    const size_t first = table_.ChunkFor(lo);
    const size_t last = table_.ChunkFor(hi - 1);
    for (size_t c = first; c <= last; ++c) out->push_back(c);
  }
  const ChunkLatch& DomainLatch(size_t domain) const override {
    return table_.chunk_latch(domain);
  }

  // Sharded read surface: one shard per column chunk (chunks are the
  // independent layout/tuning unit of paper §4.4, and here the independent
  // execution unit too). A chunk outside the key range contributes 0 after
  // an O(1) bounds check, before its latch is taken.
  size_t NumShards() const override { return table_.num_chunks(); }
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override {
    return table_.ScanSpecInChunk(shard, spec);
  }

  /// Batched writes: the run is routed once and applied chunk-by-chunk
  /// under each chunk's exclusive latch, chunk groups fanned over `pool`
  /// (PartitionedTable::ApplyWriteRun).
  size_t ApplyWriteRun(const std::vector<BatchWrite>& run,
                       ThreadPool* pool) override {
    return table_.ApplyWriteRun(run, pool);
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

  StatsSnapshotRegistry StatsSnapshots() const override {
    return table_.StatsSnapshots();
  }
  uint64_t LayoutFingerprint() const override {
    return table_.LayoutFingerprint();
  }

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
