#include "persist/tier_manager.h"

#include <algorithm>
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

  // 1. Fold counter deltas into the decayed heat scores.
  for (size_t c = 0; c < n; ++c) {
    const ChunkStatsSnapshot s = table_->CoherentStatsSnapshot(c);
    const uint64_t reads =
        s.element_reads + s.compressed_scans + s.compressed_payload_scans;
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

  // 2. Demote coldest-first while over budget. Chunks that took writes since
  // the last cycle are pinned: the write path would promote them right back.
  size_t resident_bytes = 0;
  std::vector<std::pair<double, size_t>> candidates;  // (score, chunk)
  for (size_t c = 0; c < n; ++c) {
    if (!table_->ChunkResident(c)) continue;
    const size_t bytes = table_->ChunkMemoryBytes(c);
    resident_bytes += bytes;
    ++report.resident_chunks;
    if (bytes == 0 || heat_[c].wrote_this_cycle) continue;
    candidates.emplace_back(heat_[c].score, c);
  }
  const int64_t budget = options_.memory_budget_bytes;
  if (budget > 0 && resident_bytes > static_cast<size_t>(budget)) {
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [score, c] : candidates) {
      if (resident_bytes <= static_cast<size_t>(budget)) break;
      const size_t bytes = table_->ChunkMemoryBytes(c);
      if (!table_->EvictChunk(c, store_.TierChunkPath(c))) continue;
      resident_bytes -= std::min(resident_bytes, bytes);
      ++report.evictions;
      --report.resident_chunks;
    }
  }

  // 3. Promote evicted chunks that got hot. Under a tight budget a promotion
  // may displace strictly colder resident chunks: without displacement, a
  // chunk that was lukewarm when the budget first bit squats on its bytes
  // forever (demotion only runs while over budget) while a genuinely hot
  // evicted chunk keeps paying a disk read per query.
  std::vector<std::pair<double, size_t>> hot;  // (score, chunk), evicted
  for (size_t c = 0; c < n; ++c) {
    if (table_->ChunkResident(c)) continue;
    if (heat_[c].score < TierOptions::kPromoteScore) continue;
    hot.emplace_back(heat_[c].score, c);
  }
  std::sort(hot.rbegin(), hot.rend());  // hottest first
  std::vector<std::pair<double, size_t>> displaceable;  // coldest at the back
  for (size_t c = 0; c < n; ++c) {
    if (!table_->ChunkResident(c)) continue;
    if (table_->ChunkMemoryBytes(c) == 0 || heat_[c].wrote_this_cycle) continue;
    displaceable.emplace_back(heat_[c].score, c);
  }
  std::sort(displaceable.rbegin(), displaceable.rend());
  for (const auto& [score, c] : hot) {
    const size_t footprint = table_->ChunkFootprintIfResident(c);
    while (budget > 0 &&
           resident_bytes + footprint > static_cast<size_t>(budget) &&
           !displaceable.empty() && displaceable.back().first < score) {
      const size_t victim = displaceable.back().second;
      displaceable.pop_back();
      const size_t bytes = table_->ChunkMemoryBytes(victim);
      if (!table_->EvictChunk(victim, store_.TierChunkPath(victim))) continue;
      resident_bytes -= std::min(resident_bytes, bytes);
      ++report.evictions;
      --report.resident_chunks;
    }
    if (budget > 0 &&
        resident_bytes + footprint > static_cast<size_t>(budget)) {
      continue;
    }
    if (!table_->PromoteChunk(c)) continue;
    resident_bytes += table_->ChunkMemoryBytes(c);
    ++report.promotions;
    ++report.resident_chunks;
  }

  report.resident_bytes = resident_bytes;
  return report;
}

}  // namespace persist
}  // namespace casper
