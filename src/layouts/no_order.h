#ifndef CASPER_LAYOUTS_NO_ORDER_H_
#define CASPER_LAYOUTS_NO_ORDER_H_

#include <vector>

#include "layouts/layout_engine.h"

namespace casper {

/// Vanilla column-store: fixed-width arrays in insertion order, no write
/// optimizations (paper Fig. 1 "baseline", Table 1 row (a)/(a)/(a)).
/// Every read is a full scan; inserts append; deletes swap-remove; updates
/// are applied in place.
class NoOrderLayout final : public LayoutEngine {
 public:
  NoOrderLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kNoOrder; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Unified scan surface: the whole insertion-order column is the one
  /// shard, evaluated under one latch hold.
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  /// Batched writes: the run applies in order under one exclusive hold of
  /// the engine latch (appends and swap-removes, exactly as Insert/Delete).
  size_t ApplyWriteRun(const std::vector<BatchWrite>& run,
                       ThreadPool* pool) override;

  size_t num_rows() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.size();
  }
  /// Raw key column (bench/test hook, like PartitionedTable::key_chunk):
  /// bypasses the latch — callers must be quiescent. The assert claims the
  /// capability to the analysis and fail-fasts if a writer is mid-flight.
  const std::vector<Value>& raw_keys() const {
    engine_latch_.AssertReaderHeld();
    return keys_;
  }
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

 private:
  // Latch-free write internals; callers hold the engine latch exclusively.
  void InsertLocked(Value key, const std::vector<Payload>& payload)
      REQUIRES(engine_latch_);
  size_t DeleteLocked(Value key) REQUIRES(engine_latch_);

  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  std::vector<Value> keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> payload_
      GUARDED_BY(engine_latch_);  // [col][row]
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_NO_ORDER_H_
