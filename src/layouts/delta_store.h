#ifndef CASPER_LAYOUTS_DELTA_STORE_H_
#define CASPER_LAYOUTS_DELTA_STORE_H_

#include <cstdint>
#include <vector>

#include "layouts/layout_engine.h"

namespace casper {

/// State-of-the-art update-aware columnar layout (paper's "State-of-art"
/// mode), one of the paper's comparison points: a sorted read-optimized main
/// store plus an unsorted delta buffer for incoming writes, merged back once
/// the delta holds max(4096 rows, 0.2% of the main store) (the C-Store /
/// Vertica write-store design [78, 48]). Deletes on the main store are
/// positional tombstones (a delete bitmap, cf. positional update handling
/// [38]); reads evaluate the main window as tombstone-free runs, and the
/// merge compacts the tombstones away.
class DeltaStoreLayout final : public LayoutEngine {
 public:
  /// `keys` must be sorted; payload columns aligned.
  DeltaStoreLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kDeltaStore; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Unified scan surface: the main/delta pair is the one shard — one
  /// main-store pass (binary-searched window, split at its tombstones) plus
  /// one delta pass, merged main-first.
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  size_t num_rows() const override;
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

  /// Merges performed so far (delta integrations back into the main store).
  uint64_t merge_count() const {
    SharedChunkGuard guard(engine_latch_);
    return merges_;
  }
  size_t delta_size() const {
    SharedChunkGuard guard(engine_latch_);
    return delta_keys_.size();
  }

  /// Force a merge now (also used internally when the delta fills up).
  void Merge();

 private:
  // Latch-free internals; public wrappers hold the engine latch (UpdateKey
  // composes lookup + delete + insert under one exclusive hold).
  size_t PointLookupLocked(Value key, std::vector<Payload>* payload) const
      REQUIRES_SHARED(engine_latch_);
  void InsertLocked(Value key, const std::vector<Payload>& payload)
      REQUIRES(engine_latch_);
  size_t DeleteLocked(Value key) REQUIRES(engine_latch_);
  void MergeLocked() REQUIRES(engine_latch_);
  void MaybeMerge() REQUIRES(engine_latch_);

  /// Spec evaluation over the pre-qualified main window [first, last) —
  /// rows already satisfy the key predicate — as the merge of its
  /// tombstone-free runs.
  ScanPartial EvalMainWindowLocked(size_t first, size_t last,
                                   const ScanSpec& spec) const
      REQUIRES_SHARED(engine_latch_);

  /// Spec evaluation over the unsorted delta buffer.
  ScanPartial EvalDeltaLocked(const ScanSpec& spec) const
      REQUIRES_SHARED(engine_latch_);

  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  // Main store: sorted, with a positional delete bitmap.
  std::vector<Value> main_keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> main_payload_ GUARDED_BY(engine_latch_);
  std::vector<uint8_t> deleted_ GUARDED_BY(engine_latch_);
  size_t main_live_ GUARDED_BY(engine_latch_) = 0;
  // Delta store: unsorted appends.
  std::vector<Value> delta_keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> delta_payload_ GUARDED_BY(engine_latch_);
  uint64_t merges_ GUARDED_BY(engine_latch_) = 0;
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_DELTA_STORE_H_
