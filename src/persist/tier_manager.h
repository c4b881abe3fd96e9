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

/// Tiering policy: the heat decay and promotion threshold are constants;
/// the byte budget is the one setting (EngineOptions::persist).
struct TierOptions {
  /// Exponential decay applied to each chunk's heat score per cycle.
  static constexpr double kDecay = 0.5;
  /// Heat score at which an evicted chunk becomes a candidate for promotion
  /// (admitted only if its resident footprint fits the budget).
  static constexpr double kPromoteScore = 256.0;

  /// Resident-byte ceiling across all chunks (keys + payload). <= 0 means
  /// unbudgeted: nothing is ever demoted, but chunks evicted explicitly
  /// (tests, recovery experiments) are still promoted back on heat.
  int64_t memory_budget_bytes = 0;
};

struct TierCycleReport {
  size_t evictions = 0;
  size_t promotions = 0;
  size_t resident_chunks = 0;
  size_t resident_bytes = 0;
};

/// Memory-budgeted chunk tiering (ROADMAP item 2). Each cycle it folds the
/// per-chunk counter deltas into an exponentially decayed heat score — rows
/// read plus partitions visited plus data moved by writes, counted alike in
/// both tiers (storage/partition_scan.h) — and then makes one ranked pass:
/// the resident chunks and the evicted chunks whose heat reached
/// kPromoteScore, ordered written-this-cycle first, then hottest, then lowest
/// chunk index, are admitted while their footprints fit the budget (all of
/// them when unbudgeted; a written chunk always). Every resident chunk left
/// out is evicted and every evicted chunk let in is promoted, so the resident
/// set tracks the hot set, and a hot chunk too big for the room left evicts
/// nothing.
///
/// Rides the LayoutMaintenanceService cycle cadence via SetCycleHook, so
/// demotion/promotion happens on the same background thread (and under the
/// same serialization) as re-partitioning; RunCycle is also safe to call
/// directly (tests, foreground maintenance mode).
///
/// Writes always promote first (the table's write paths call
/// EnsureResidentLocked under the exclusive chunk latch), so a chunk that
/// took writes since the last cycle is ranked first and kept resident —
/// demoting it would immediately bounce back.
class TierManager {
 public:
  TierManager(PartitionedTable* table, StoreLayout store, TierOptions options);

  TierManager(const TierManager&) = delete;
  TierManager& operator=(const TierManager&) = delete;

  /// One scoring + ranking + eviction/promotion pass. Serialized internally.
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
