#include "layouts/no_order.h"

#include <utility>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

NoOrderLayout::NoOrderLayout(std::vector<Value> keys,
                             std::vector<std::vector<Payload>> payload)
    : payload_cols_(payload.size()),
      keys_(std::move(keys)),
      payload_(std::move(payload)) {
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

size_t NoOrderLayout::PointLookup(Value key, std::vector<Payload>* payload) const {
  SharedChunkGuard guard(engine_latch_);
  const size_t count = kernels::CountEqual(keys_.data(), keys_.size(), key);
  if (payload != nullptr) {
    payload->clear();
    if (count > 0) {
      const size_t first = kernels::FindFirstEqual(keys_.data(), keys_.size(), key);
      payload->reserve(payload_.size());
      for (const auto& col : payload_) payload->push_back(col[first]);
    }
  }
  return count;
}

ScanPartial NoOrderLayout::ScanSpecShard(size_t /*shard*/,
                                         const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  ScanPartial out;
  if (!spec.RefsValid(payload_.size()) || keys_.empty()) return out;
  if (spec.predicates.empty() && spec.agg.kind == AggKind::kCount &&
      spec.full_domain) {
    // Insertion order carries no key structure: every row is live, and the
    // full-domain scan visits all of them (both edges included) without
    // touching data.
    out.count = keys_.size();
    return out;
  }
  exec::SpecRows rows;
  rows.keys = keys_.data();
  rows.n = keys_.size();
  rows.cols = &payload_;
  return exec::EvalSpecRows(spec, rows);
}

void NoOrderLayout::Insert(Value key, const std::vector<Payload>& payload) {
  ExclusiveChunkGuard guard(engine_latch_);
  InsertLocked(key, payload);
}

void NoOrderLayout::InsertLocked(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == payload_.size());
  keys_.push_back(key);
  for (size_t c = 0; c < payload_.size(); ++c) payload_[c].push_back(payload[c]);
}

size_t NoOrderLayout::Delete(Value key) {
  ExclusiveChunkGuard guard(engine_latch_);
  return DeleteLocked(key);
}

size_t NoOrderLayout::DeleteLocked(Value key) {
  const size_t i = kernels::FindFirstEqual(keys_.data(), keys_.size(), key);
  if (i == keys_.size()) return 0;
  keys_[i] = keys_.back();
  keys_.pop_back();
  for (auto& col : payload_) {
    col[i] = col.back();
    col.pop_back();
  }
  return 1;
}

size_t NoOrderLayout::ApplyWriteRun(const std::vector<BatchWrite>& run,
                                    ThreadPool* /*pool*/) {
  ExclusiveChunkGuard guard(engine_latch_);
  size_t deleted = 0;
  for (const BatchWrite& w : run) {
    if (w.is_insert) {
      InsertLocked(w.key, w.payload);
    } else {
      deleted += DeleteLocked(w.key);
    }
  }
  return deleted;
}

bool NoOrderLayout::UpdateKey(Value old_key, Value new_key) {
  ExclusiveChunkGuard guard(engine_latch_);
  const size_t i = kernels::FindFirstEqual(keys_.data(), keys_.size(), old_key);
  if (i == keys_.size()) return false;
  keys_[i] = new_key;  // in-place update: the luxury of an unordered layout
  return true;
}

LayoutMemoryStats NoOrderLayout::MemoryStats() const {
  SharedChunkGuard guard(engine_latch_);
  LayoutMemoryStats s;
  s.data_bytes = keys_.size() * sizeof(Value) +
                 payload_.size() * keys_.size() * sizeof(Payload);
  s.total_bytes = s.data_bytes;
  return s;
}

void NoOrderLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

}  // namespace casper
