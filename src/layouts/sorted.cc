#include "layouts/sorted.h"

#include <algorithm>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

SortedLayout::SortedLayout(std::vector<Value> keys,
                           std::vector<std::vector<Payload>> payload)
    : payload_cols_(payload.size()),
      keys_(std::move(keys)),
      payload_(std::move(payload)) {
  CASPER_CHECK(std::is_sorted(keys_.begin(), keys_.end()));
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

size_t SortedLayout::PointLookup(Value key, std::vector<Payload>* payload) const {
  SharedChunkGuard guard(engine_latch_);
  const auto [first, last] = std::equal_range(keys_.begin(), keys_.end(), key);
  const size_t count = static_cast<size_t>(last - first);
  if (payload != nullptr) {
    payload->clear();
    if (count > 0) {
      const size_t i = static_cast<size_t>(first - keys_.begin());
      for (const auto& col : payload_) payload->push_back(col[i]);
    }
  }
  return count;
}

ScanPartial SortedLayout::EvalWindowLocked(size_t first, size_t last,
                                           const ScanSpec& spec) const {
  ScanPartial out;
  if (!spec.RefsValid(payload_.size())) return out;
  if (first >= last) return out;
  // Binary search already isolated the qualifying rows, so evaluation runs
  // with the key predicate resolved: counts are the window width, sums are
  // unconditional vector sums, predicates filter within the window.
  exec::SpecRows rows;
  rows.keys = keys_.data() + first;
  rows.n = last - first;
  rows.base = static_cast<uint32_t>(first);
  rows.cols = &payload_;
  rows.key_check = false;
  return exec::EvalSpecRows(spec, rows);
}

ScanPartial SortedLayout::ScanSpecShard(size_t /*shard*/,
                                        const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  if (spec.full_domain) return EvalWindowLocked(0, keys_.size(), spec);
  if (spec.EmptyKeyRange()) return ScanPartial{};
  const size_t first =
      static_cast<size_t>(std::lower_bound(keys_.begin(), keys_.end(), spec.lo) -
                          keys_.begin());
  const size_t last = static_cast<size_t>(
      std::lower_bound(keys_.begin() + static_cast<ptrdiff_t>(first), keys_.end(),
                       spec.hi) -
      keys_.begin());
  return EvalWindowLocked(first, last, spec);
}

void SortedLayout::Insert(Value key, const std::vector<Payload>& payload) {
  ExclusiveChunkGuard guard(engine_latch_);
  InsertLocked(key, payload);
}

void SortedLayout::InsertLocked(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == payload_.size());
  const size_t pos = static_cast<size_t>(
      std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(pos), key);
  for (size_t c = 0; c < payload_.size(); ++c) {
    payload_[c].insert(payload_[c].begin() + static_cast<ptrdiff_t>(pos), payload[c]);
  }
}

bool SortedLayout::TakeLocked(Value key, std::vector<Payload>* row_out) {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return false;
  const size_t pos = static_cast<size_t>(it - keys_.begin());
  if (row_out != nullptr) row_out->clear();
  keys_.erase(it);
  for (auto& col : payload_) {
    if (row_out != nullptr) row_out->push_back(col[pos]);
    col.erase(col.begin() + static_cast<ptrdiff_t>(pos));
  }
  return true;
}

size_t SortedLayout::Delete(Value key) {
  ExclusiveChunkGuard guard(engine_latch_);
  return TakeLocked(key, nullptr) ? 1 : 0;
}

bool SortedLayout::UpdateKey(Value old_key, Value new_key) {
  ExclusiveChunkGuard guard(engine_latch_);
  std::vector<Payload> row;
  if (!TakeLocked(old_key, &row)) return false;
  InsertLocked(new_key, row);
  return true;
}

LayoutMemoryStats SortedLayout::MemoryStats() const {
  SharedChunkGuard guard(engine_latch_);
  LayoutMemoryStats s;
  s.data_bytes = keys_.size() * sizeof(Value) +
                 payload_.size() * keys_.size() * sizeof(Payload);
  s.total_bytes = s.data_bytes;
  return s;
}

void SortedLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  CASPER_CHECK(std::is_sorted(keys_.begin(), keys_.end()));
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

}  // namespace casper
