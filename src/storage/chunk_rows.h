#ifndef CASPER_STORAGE_CHUNK_ROWS_H_
#define CASPER_STORAGE_CHUNK_ROWS_H_

#include <functional>
#include <memory>
#include <vector>

#include "compression/packed_column.h"
#include "storage/column_chunk.h"
#include "storage/compressed_cache.h"
#include "storage/types.h"

namespace casper {

/// One chunk's live rows in partition order: the image every chunk
/// transition passes through. The warm-cache encoding and the chunk file are
/// both encoded from it (EncodeChunkRows); re-partition, promotion and
/// recovery rebuild from it once SortWithinPartitions has put it in key
/// order (partitions cover disjoint ascending key ranges, so sorting within
/// each partition sorts the chunk).
struct ChunkRows {
  /// Partition geometry; the sizes sum to keys.size().
  std::vector<PartitionedColumnChunk::Partition> parts;
  /// Live keys, concatenated partition by partition.
  std::vector<Value> keys;
  /// payload[c][r] is column c of the row whose key is keys[r].
  std::vector<std::vector<Payload>> payload;
};

/// Packs one payload column (live rows in partition order); nullptr keeps
/// the column raw.
using PayloadEncoder = std::function<std::shared_ptr<const PackedPayloadColumn>(
    const std::vector<Payload>&)>;

/// The one ChunkEncoding builder: FoR key frames over the non-empty
/// partitions (frames == partitions, paper §6.2's partitioning/compression
/// synergy), the live-row prefix, per-partition payload zone maps, and one
/// `encode` call per payload column. An empty chunk gets no key frame and no
/// packed columns.
ChunkEncoding EncodeChunkRows(const ChunkRows& rows, const PayloadEncoder& encode);

/// Stable per-partition sort by key: payload rows move with their keys and
/// equal keys keep their stored order, so the result is deterministic.
void SortWithinPartitions(ChunkRows* rows);

}  // namespace casper

#endif  // CASPER_STORAGE_CHUNK_ROWS_H_
