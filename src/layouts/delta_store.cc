#include "layouts/delta_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

namespace {

/// The delta is merged back once it holds this fraction of the main store,
/// and never below kMinMergeRows (avoids merge storms on tiny data).
constexpr double kMergeFraction = 0.002;
constexpr size_t kMinMergeRows = 4096;

}  // namespace

DeltaStoreLayout::DeltaStoreLayout(std::vector<Value> keys,
                                   std::vector<std::vector<Payload>> payload)
    : payload_cols_(payload.size()),
      main_keys_(std::move(keys)),
      main_payload_(std::move(payload)),
      deleted_(main_keys_.size(), 0),
      main_live_(main_keys_.size()),
      delta_payload_(main_payload_.size()) {
  CASPER_CHECK(std::is_sorted(main_keys_.begin(), main_keys_.end()));
  for (const auto& col : main_payload_) CASPER_CHECK(col.size() == main_keys_.size());
}

size_t DeltaStoreLayout::PointLookup(Value key, std::vector<Payload>* payload) const {
  SharedChunkGuard guard(engine_latch_);
  return PointLookupLocked(key, payload);
}

size_t DeltaStoreLayout::PointLookupLocked(Value key,
                                           std::vector<Payload>* payload) const {
  size_t count = 0;
  size_t first_main = main_keys_.size();
  const auto [lo, hi] = std::equal_range(main_keys_.begin(), main_keys_.end(), key);
  for (auto it = lo; it != hi; ++it) {
    const size_t i = static_cast<size_t>(it - main_keys_.begin());
    if (!deleted_[i]) {
      if (count == 0) first_main = i;
      ++count;
    }
  }
  size_t first_delta = delta_keys_.size();
  const uint64_t delta_matches =
      kernels::CountEqual(delta_keys_.data(), delta_keys_.size(), key);
  count += delta_matches;
  // Find-first only when the caller wants a payload row back: count-only
  // lookups already have their answer from the vector count.
  if (payload != nullptr && delta_matches > 0) {
    first_delta =
        kernels::FindFirstEqual(delta_keys_.data(), delta_keys_.size(), key);
  }
  if (payload != nullptr) {
    payload->clear();
    if (first_main < main_keys_.size()) {
      for (const auto& col : main_payload_) payload->push_back(col[first_main]);
    } else if (first_delta < delta_keys_.size()) {
      for (const auto& col : delta_payload_) payload->push_back(col[first_delta]);
    }
  }
  return count;
}

ScanPartial DeltaStoreLayout::EvalMainWindowLocked(size_t first, size_t last,
                                                   const ScanSpec& spec) const {
  // Window rows already satisfy the key predicate. The tombstones cut the
  // window into runs of live rows; each run is a pre-qualified window of its
  // own, and ScanPartial::Merge is associative and commutative, so the
  // merged partial is bit-identical to filtering row by row. A store with
  // no tombstones at all (deletes are rare and merges compact them away)
  // is one run, found without touching the bitmap.
  const bool any_dead = main_live_ != main_keys_.size();
  const uint8_t* dead = deleted_.data();
  ScanPartial out;
  exec::SpecRows rows;
  rows.cols = &main_payload_;
  rows.key_check = false;
  while (first < last) {
    const auto* hit = static_cast<const uint8_t*>(
        any_dead ? std::memchr(dead + first, 1, last - first) : nullptr);
    const size_t end = hit == nullptr ? last : static_cast<size_t>(hit - dead);
    if (end > first) {
      rows.keys = main_keys_.data() + first;
      rows.n = end - first;
      rows.base = static_cast<uint32_t>(first);
      out.Merge(exec::EvalSpecRows(spec, rows));
    }
    first = end + 1;
  }
  return out;
}

ScanPartial DeltaStoreLayout::EvalDeltaLocked(const ScanSpec& spec) const {
  exec::SpecRows rows;
  rows.keys = delta_keys_.data();
  rows.n = delta_keys_.size();
  rows.base = 0;
  rows.cols = &delta_payload_;
  return exec::EvalSpecRows(spec, rows);
}

ScanPartial DeltaStoreLayout::ScanSpecShard(size_t /*shard*/,
                                            const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  ScanPartial out;
  if (!spec.RefsValid(main_payload_.size()) || spec.EmptyKeyRange()) return out;
  if (spec.full_domain) {
    out = EvalMainWindowLocked(0, main_keys_.size(), spec);
  } else {
    const size_t first = static_cast<size_t>(
        std::lower_bound(main_keys_.begin(), main_keys_.end(), spec.lo) -
        main_keys_.begin());
    const size_t last = static_cast<size_t>(
        std::lower_bound(main_keys_.begin() + static_cast<ptrdiff_t>(first),
                         main_keys_.end(), spec.hi) -
        main_keys_.begin());
    out = EvalMainWindowLocked(first, last, spec);
  }
  out.Merge(EvalDeltaLocked(spec));
  return out;
}

void DeltaStoreLayout::Insert(Value key, const std::vector<Payload>& payload) {
  ExclusiveChunkGuard guard(engine_latch_);
  InsertLocked(key, payload);
}

void DeltaStoreLayout::InsertLocked(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == main_payload_.size());
  delta_keys_.push_back(key);
  for (size_t c = 0; c < payload.size(); ++c) delta_payload_[c].push_back(payload[c]);
  MaybeMerge();
}

size_t DeltaStoreLayout::Delete(Value key) {
  ExclusiveChunkGuard guard(engine_latch_);
  return DeleteLocked(key);
}

size_t DeltaStoreLayout::DeleteLocked(Value key) {
  // Prefer the delta (cheap swap-remove), then tombstone the main store.
  const size_t i =
      kernels::FindFirstEqual(delta_keys_.data(), delta_keys_.size(), key);
  if (i < delta_keys_.size()) {
    delta_keys_[i] = delta_keys_.back();
    delta_keys_.pop_back();
    for (auto& col : delta_payload_) {
      col[i] = col.back();
      col.pop_back();
    }
    return 1;
  }
  const auto [lo, hi] = std::equal_range(main_keys_.begin(), main_keys_.end(), key);
  for (auto it = lo; it != hi; ++it) {
    const size_t i = static_cast<size_t>(it - main_keys_.begin());
    if (!deleted_[i]) {
      deleted_[i] = 1;
      --main_live_;
      return 1;
    }
  }
  return 0;
}

bool DeltaStoreLayout::UpdateKey(Value old_key, Value new_key) {
  // Classic delta-store update: delete + re-insert (paper §3 "Updates"),
  // atomic under one exclusive hold of the engine latch.
  ExclusiveChunkGuard guard(engine_latch_);
  std::vector<Payload> row;
  if (PointLookupLocked(old_key, &row) == 0) return false;
  DeleteLocked(old_key);
  InsertLocked(new_key, row);
  return true;
}

size_t DeltaStoreLayout::num_rows() const {
  SharedChunkGuard guard(engine_latch_);
  return main_live_ + delta_keys_.size();
}

void DeltaStoreLayout::MaybeMerge() {
  const size_t threshold = std::max(
      kMinMergeRows,
      static_cast<size_t>(kMergeFraction * static_cast<double>(main_keys_.size())));
  if (delta_keys_.size() >= threshold) MergeLocked();
}

void DeltaStoreLayout::Merge() {
  ExclusiveChunkGuard guard(engine_latch_);
  MergeLocked();
}

void DeltaStoreLayout::MergeLocked() {
  // Sort the delta (with payload permutation), then merge with the live part
  // of the main store.
  std::vector<size_t> order(delta_keys_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return delta_keys_[a] < delta_keys_[b]; });

  std::vector<Value> merged_keys;
  merged_keys.reserve(main_live_ + delta_keys_.size());
  std::vector<std::vector<Payload>> merged_payload(main_payload_.size());
  for (auto& col : merged_payload) col.reserve(main_live_ + delta_keys_.size());

  size_t mi = 0;
  size_t di = 0;
  while (mi < main_keys_.size() || di < order.size()) {
    while (mi < main_keys_.size() && deleted_[mi]) ++mi;
    const bool take_main =
        mi < main_keys_.size() &&
        (di >= order.size() || main_keys_[mi] <= delta_keys_[order[di]]);
    if (take_main) {
      merged_keys.push_back(main_keys_[mi]);
      for (size_t c = 0; c < main_payload_.size(); ++c) {
        merged_payload[c].push_back(main_payload_[c][mi]);
      }
      ++mi;
    } else if (di < order.size()) {
      const size_t row = order[di];
      merged_keys.push_back(delta_keys_[row]);
      for (size_t c = 0; c < main_payload_.size(); ++c) {
        merged_payload[c].push_back(delta_payload_[c][row]);
      }
      ++di;
    } else {
      break;
    }
  }

  main_keys_ = std::move(merged_keys);
  main_payload_ = std::move(merged_payload);
  deleted_.assign(main_keys_.size(), 0);
  main_live_ = main_keys_.size();
  delta_keys_.clear();
  for (auto& col : delta_payload_) col.clear();
  ++merges_;
}

LayoutMemoryStats DeltaStoreLayout::MemoryStats() const {
  SharedChunkGuard guard(engine_latch_);
  LayoutMemoryStats s;
  const size_t row_bytes = sizeof(Value) + main_payload_.size() * sizeof(Payload);
  // Direct fields, not num_rows(): this method already holds the latch.
  s.data_bytes = (main_live_ + delta_keys_.size()) * row_bytes;
  s.total_bytes = (main_keys_.size() + delta_keys_.size()) * row_bytes +
                  deleted_.size() * sizeof(uint8_t);
  return s;
}

void DeltaStoreLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  CASPER_CHECK(std::is_sorted(main_keys_.begin(), main_keys_.end()));
  CASPER_CHECK(deleted_.size() == main_keys_.size());
  size_t live = 0;
  for (const uint8_t d : deleted_) live += (d == 0);
  CASPER_CHECK(live == main_live_);
  for (const auto& col : main_payload_) CASPER_CHECK(col.size() == main_keys_.size());
  for (const auto& col : delta_payload_) CASPER_CHECK(col.size() == delta_keys_.size());
}

}  // namespace casper
