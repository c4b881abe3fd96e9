#ifndef CASPER_LAYOUTS_SORTED_H_
#define CASPER_LAYOUTS_SORTED_H_

#include <vector>

#include "layouts/layout_engine.h"

namespace casper {

/// Fully sorted column-store (paper Table 1 row (b)): binary-search reads,
/// but every write shifts the tail of the column (and of every payload
/// column) to keep the sort order — the classic read-optimized extreme.
class SortedLayout final : public LayoutEngine {
 public:
  /// `keys` must be sorted; payload columns aligned with it.
  SortedLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kSorted; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Unified scan surface: the sorted run is the one shard. The key range
  /// resolves to one whole-column binary-searched window [first, last) —
  /// counts never touch data, sums run the unconditional vector kernels, and
  /// payload predicates filter within the pre-qualified window.
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  size_t num_rows() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.size();
  }
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

 private:
  /// Latch-free insert at the upper_bound position (new rows land after
  /// existing equals); Insert and UpdateKey hold the engine latch exclusively.
  void InsertLocked(Value key, const std::vector<Payload>& payload)
      REQUIRES(engine_latch_);

  /// Spec evaluation over the pre-qualified sorted window [first, last)
  /// (every row in it satisfies the key predicate).
  ScanPartial EvalWindowLocked(size_t first, size_t last,
                               const ScanSpec& spec) const
      REQUIRES_SHARED(engine_latch_);

  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  std::vector<Value> keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> payload_ GUARDED_BY(engine_latch_);
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_SORTED_H_
