#include "persist/cold_scan.h"

#include <algorithm>

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

PromotedChunkData DecodeForPromotion(const PersistedChunk& f, size_t spare_tail) {
  const ChunkEncoding& enc = f.encoding;
  PromotedChunkData out;
  ChunkRows& rows = out.rows;
  rows.parts = f.parts;
  if (enc.keys != nullptr) rows.keys = enc.keys->DecodeAll();
  rows.payload.resize(enc.payload.size());
  for (size_t c = 0; c < enc.payload.size(); ++c) {
    if (enc.payload[c] != nullptr) rows.payload[c] = enc.payload[c]->DecodeAll();
  }
  SortWithinPartitions(&rows);
  for (const ChunkPartitionMeta& p : f.parts) {
    out.spec.partition_sizes.push_back(p.size);
    out.spec.ghosts.push_back(p.cap - p.size);
  }
  if (!out.spec.ghosts.empty()) {
    out.spec.ghosts.back() -= std::min(out.spec.ghosts.back(), spare_tail);
  }
  return out;
}

}  // namespace persist
}  // namespace casper
