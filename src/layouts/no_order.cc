#include "layouts/no_order.h"

#include <algorithm>

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

CompressedChunkCache::EncodingPtr NoOrderLayout::CompressedColumn(
    bool count_scan) const {
  // count_scan=false is the hit-only path for per-morsel shard scans: a
  // 16-way fan-out must not cast 16 "read-mostly" votes for one query.
  if (!count_scan) return compressed_.Get(0, engine_latch_.Epoch());
  return compressed_.GetOrBuild(
      0, engine_latch_.Epoch(), keys_.size(),
      [&]() -> CompressedChunkCache::EncodingPtr {
        // The analysis can't see through GetOrBuild that this callback runs
        // on the caller's thread with the engine latch still held shared.
        engine_latch_.AssertReaderHeld();
        return EncodeSingleStore(keys_, payload_);
      });
}

ScanPartial NoOrderLayout::ExecuteScan(const ScanSpec& spec) const {
  // Whole-column evaluation under one latch hold (the morsel fan-out path
  // goes shard-by-shard through ScanSpecShard instead).
  SharedChunkGuard guard(engine_latch_);
  return EvalRowsLocked(0, keys_.size(), spec, /*count_vote=*/true);
}

ScanPartial NoOrderLayout::ScanSpecShard(size_t shard, const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  const auto [begin, end] = MorselBounds(shard);
  // Shard 0 casts the query's single read-mostly vote (every fanned query
  // visits it exactly once); the other morsels only consume a cache hit.
  return EvalRowsLocked(begin, end, spec, /*count_vote=*/shard == 0);
}

ScanPartial NoOrderLayout::EvalRowsLocked(size_t begin, size_t end,
                                          const ScanSpec& spec,
                                          bool count_vote) const {
  ScanPartial out;
  if (!spec.RefsValid(payload_.size())) return out;
  end = std::min(end, keys_.size());
  if (begin >= end) return out;
  if (spec.predicates.empty() && spec.agg.kind == AggKind::kCount) {
    if (spec.full_domain) {
      // Insertion order carries no key structure: every row in the window is
      // live, and the full-domain scan visits all of them (both edges
      // included) without touching data or the compressed cache.
      out.count = end - begin;
      return out;
    }
    if (const auto enc = CompressedColumn(count_vote)) {
      out.count = (begin == 0 && end == keys_.size())
                      ? enc->keys->CountRange(spec.lo, spec.hi)
                      : enc->keys->CountRangeInRows(begin, end, spec.lo, spec.hi);
      return out;
    }
  }
  exec::SpecRows rows;
  rows.keys = keys_.data() + begin;
  rows.n = end - begin;
  rows.base = static_cast<uint32_t>(begin);
  rows.cols = &payload_;
  // Payload-touching specs scan packed columns when the cache has them:
  // insertion-order rows are dense, so packed row == slot. The snapshot
  // must stay alive across the evaluation (rows.packed points into it).
  CompressedChunkCache::EncodingPtr enc;
  if (spec.TouchesPayload()) {
    enc = CompressedColumn(count_vote);
    if (enc != nullptr) {
      rows.packed = &enc->payload;
      rows.packed_base = begin;
    }
  }
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
  // A live compressed encoding is real resident memory, same as the
  // partitioned table's accounting.
  s.total_bytes = s.data_bytes + compressed_.MemoryBytes();
  return s;
}

void NoOrderLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

}  // namespace casper
