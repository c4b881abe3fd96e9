#ifndef CASPER_PERSIST_TIER_MANAGER_H_
#define CASPER_PERSIST_TIER_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "persist/store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace casper {

class PartitionedTable;

namespace persist {

/// Tiering policy knobs, split out of EngineOptions::persist.
struct TierOptions {
  /// Exponential decay applied to each chunk's heat score per cycle.
  static constexpr double kDecay = 0.5;

  /// Resident-byte ceiling across all chunks (keys + payload). <= 0 means
  /// unbudgeted: nothing is ever demoted, but chunks evicted explicitly
  /// (tests, recovery experiments) are still promoted back on heat.
  int64_t memory_budget_bytes = 0;
  /// Heat score at which an evicted chunk is promoted back (subject to the
  /// budget admitting its resident footprint).
  double promote_score = 256.0;
};

struct TierCycleReport {
  size_t evictions = 0;
  size_t promotions = 0;
  size_t resident_chunks = 0;
  size_t resident_bytes = 0;
};

/// Memory-budgeted chunk tiering (ROADMAP item 2). Each cycle it folds the
/// per-chunk access-counter deltas into an exponentially decayed heat score,
/// then (a) demotes the coldest resident chunks to tier files while the
/// resident footprint exceeds the budget, and (b) promotes evicted chunks
/// whose score crossed the promotion threshold — displacing strictly colder
/// resident chunks when the budget is tight, so the resident set tracks the
/// hot set instead of freezing at whatever was warm when the budget first bit.
///
/// Rides the LayoutMaintenanceService cycle cadence via SetCycleHook, so
/// demotion/promotion happens on the same background thread (and under the
/// same serialization) as re-partitioning; RunCycle is also safe to call
/// directly (tests, foreground maintenance mode).
///
/// Writes always promote first (the table's write paths call
/// EnsureResidentLocked under the exclusive chunk latch), so a chunk that
/// took writes since the last cycle is pinned resident for this cycle —
/// demoting it would immediately bounce back.
class TierManager {
 public:
  TierManager(PartitionedTable* table, StoreLayout store, TierOptions options);

  TierManager(const TierManager&) = delete;
  TierManager& operator=(const TierManager&) = delete;

  /// One scoring + demotion + promotion pass. Serialized internally.
  TierCycleReport RunCycle();

  const TierOptions& options() const { return options_; }

 private:
  struct ChunkHeat {
    double score = 0.0;
    uint64_t last_reads = 0;
    uint64_t last_writes = 0;
    bool wrote_this_cycle = false;
  };

  PartitionedTable* table_;
  StoreLayout store_;
  TierOptions options_;

  Mutex mu_;
  std::vector<ChunkHeat> heat_ GUARDED_BY(mu_);
};

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_TIER_MANAGER_H_
