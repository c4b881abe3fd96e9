#include "persist/cold_scan.h"

#include <algorithm>
#include <numeric>

namespace casper {
namespace persist {

size_t PointLookupPersisted(const PersistedChunk& f, Value key,
                            std::vector<Payload>* payload_out,
                            size_t payload_cols, ChunkStats* stats) {
  if (payload_out != nullptr) payload_out->clear();
  const ChunkEncoding& enc = f.encoding;
  if (f.rows == 0 || enc.keys == nullptr) return 0;
  const size_t t = f.index.Route(key);
  const ChunkPartitionMeta& p = f.parts[t];
  if (p.size == 0 || key < p.min_val || key > p.max_val) {
    ++stats->partitions_pruned;
    return 0;
  }
  const size_t begin = enc.live_prefix[t];
  const size_t end = enc.live_prefix[t + 1];
  size_t matches = 0;
  size_t first_match = 0;
  for (size_t i = begin; i < end; ++i) {
    if (enc.keys->Get(i) == key) {
      if (matches == 0) first_match = i;
      ++matches;
    }
  }
  ++stats->partitions_scanned;
  stats->element_reads += end - begin;
  if (matches > 0 && payload_out != nullptr && payload_cols > 0) {
    payload_out->resize(payload_cols);
    for (size_t col = 0; col < payload_cols; ++col) {
      (*payload_out)[col] = enc.payload[col]->DecodeAt(first_match);
    }
  }
  return matches;
}

PromotedChunkData DecodeForPromotion(const PersistedChunk& f) {
  const ChunkEncoding& enc = f.encoding;
  PromotedChunkData out;
  out.sorted_keys.reserve(f.rows);
  out.payload.resize(enc.payload.size());
  for (auto& col : out.payload) col.reserve(f.rows);
  out.sizes.reserve(f.parts.size());
  out.ghosts.reserve(f.parts.size());
  const std::vector<Value> keys =
      enc.keys != nullptr ? enc.keys->DecodeAll() : std::vector<Value>();
  std::vector<size_t> order;
  for (size_t t = 0; t < f.parts.size(); ++t) {
    out.sizes.push_back(f.parts[t].size);
    out.ghosts.push_back(f.parts[t].cap - f.parts[t].size);
    const size_t begin = enc.live_prefix[t];
    const size_t end = enc.live_prefix[t + 1];
    if (begin == end) continue;
    order.resize(end - begin);
    std::iota(order.begin(), order.end(), begin);
    // Stable: duplicate keys keep their stored row order, so the payload
    // permutation is deterministic.
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    for (const size_t i : order) out.sorted_keys.push_back(keys[i]);
    for (size_t c = 0; c < enc.payload.size(); ++c) {
      for (const size_t i : order) {
        out.payload[c].push_back(enc.payload[c]->DecodeAt(i));
      }
    }
  }
  return out;
}

}  // namespace persist
}  // namespace casper
