#include "persist/tier_manager.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "storage/table.h"
#include "storage/types.h"

namespace casper {
namespace persist {

TierManager::TierManager(PartitionedTable* table, StoreLayout store,
                         TierOptions options)
    : table_(table), store_(std::move(store)), options_(options) {
  MutexLock lock(mu_);
  heat_.resize(table_->num_chunks());
}

TierCycleReport TierManager::RunCycle() {
  MutexLock lock(mu_);
  TierCycleReport report;
  const size_t n = table_->num_chunks();
  if (heat_.size() < n) heat_.resize(n);

  // Fold counter deltas into the decayed heat scores: rows read plus
  // partitions visited, the same counters in both tiers (ScanPartitions'
  // one rule), and data moved by writes.
  for (size_t c = 0; c < n; ++c) {
    const ChunkStatsSnapshot s = table_->CoherentStatsSnapshot(c);
    const uint64_t reads = s.element_reads + s.partitions_scanned;
    const uint64_t writes = s.element_writes + s.ripple_steps;
    ChunkHeat& h = heat_[c];
    // Counters only move forward in normal operation; clamp so an explicit
    // stats Clear() (tests) reads as zero activity, not a huge unsigned wrap.
    const uint64_t dr = reads - std::min(reads, h.last_reads);
    const uint64_t dw = writes - std::min(writes, h.last_writes);
    h.last_reads = reads;
    h.last_writes = writes;
    h.wrote_this_cycle = dw > 0;
    h.score = h.score * TierOptions::kDecay + static_cast<double>(dr) +
              static_cast<double>(dw);
  }

  // Rank the resident chunks and the evicted ones hot enough to promote:
  // written this cycle first (the write path would promote them right back),
  // then hottest, then lowest index.
  std::vector<std::tuple<bool, double, size_t>> ranked;  // (!wrote, -heat, c)
  std::vector<char> resident(n);
  for (size_t c = 0; c < n; ++c) {
    resident[c] = table_->ChunkResident(c);
    if (!resident[c] && heat_[c].score < TierOptions::kPromoteScore) continue;
    ranked.emplace_back(!heat_[c].wrote_this_cycle, -heat_[c].score, c);
  }
  std::sort(ranked.begin(), ranked.end());

  // Admit in rank order while the footprints fit the budget; a chunk too big
  // for the room left is skipped, so it displaces nothing.
  const int64_t budget = options_.memory_budget_bytes;
  std::vector<char> admit(n, 0);
  size_t admitted_bytes = 0;
  for (const auto& [not_written, neg_heat, c] : ranked) {
    const size_t bytes = table_->ChunkFootprintIfResident(c);
    if (budget > 0 && not_written &&
        admitted_bytes + bytes > static_cast<size_t>(budget)) {
      continue;
    }
    admit[c] = 1;
    admitted_bytes += bytes;
  }

  // Evict what was left out, then promote what was let in: evictions go
  // first, so the resident bytes stay within the budget throughout.
  for (size_t c = 0; c < n; ++c) {
    if (resident[c] && !admit[c] && table_->EvictChunk(c, store_.TierChunkPath(c))) {
      ++report.evictions;
    }
  }
  for (size_t c = 0; c < n; ++c) {
    if (!resident[c] && admit[c] && table_->PromoteChunk(c)) ++report.promotions;
  }
  for (size_t c = 0; c < n; ++c) {
    if (!table_->ChunkResident(c)) continue;
    ++report.resident_chunks;
    report.resident_bytes += table_->ChunkMemoryBytes(c);
  }
  return report;
}

}  // namespace persist
}  // namespace casper
