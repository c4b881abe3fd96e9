#include "persist/cold_scan.h"

#include <algorithm>

namespace casper {
namespace persist {

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
