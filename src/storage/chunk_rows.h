#ifndef CASPER_STORAGE_CHUNK_ROWS_H_
#define CASPER_STORAGE_CHUNK_ROWS_H_

#include <memory>
#include <vector>

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "storage/column_chunk.h"
#include "storage/types.h"

namespace casper {

/// One chunk's live rows in partition order: the image every chunk
/// transition passes through. The chunk file is encoded from it
/// (EncodeChunkRows) and decoded back to it (persist::DecodeChunkRows);
/// promotion copies it into the chunk's kept geometry as it stands, and
/// re-partition and recovery rebuild from it once SortWithinPartitions has
/// put it in key order (partitions cover disjoint ascending key ranges, so
/// sorting within each partition sorts the chunk).
struct ChunkRows {
  /// Partition geometry; the sizes sum to keys.size().
  std::vector<PartitionedColumnChunk::Partition> parts;
  /// Live keys, concatenated partition by partition.
  std::vector<Value> keys;
  /// payload[c][r] is column c of the row whose key is keys[r].
  std::vector<std::vector<Payload>> payload;
};

/// Per-partition min/max of one payload column — the payload-side zone map,
/// so predicated scans can skip or blind-consume whole partitions.
struct PayloadZone {
  Payload min = 0;
  Payload max = 0;
};

/// The encoded image of one chunk — what a chunk file holds: the key frame
/// (FoR over live keys, frames = partitions), one packed column per payload
/// column, the packed-space prefix of live rows per partition (to map chunk
/// partitions into packed row positions), and per-column/per-partition
/// payload zone maps. A cold scan prunes by the zone maps and decodes the
/// rows of each partition it reads into flat arrays.
struct ChunkEncoding {
  std::shared_ptr<const FrameOfReferenceColumn> keys;
  std::vector<std::shared_ptr<const PackedPayloadColumn>> payload;
  /// live_prefix[t] = live rows in partitions [0, t): the packed-space row
  /// position where partition t's values start. Size = partitions + 1.
  std::vector<size_t> live_prefix;
  /// payload_zones[c][t] = min/max of column c within partition t (live rows
  /// only; meaningless when the partition is empty).
  std::vector<std::vector<PayloadZone>> payload_zones;
};

/// The one ChunkEncoding builder: FoR key frames over the non-empty
/// partitions (frames == partitions, paper §6.2's partitioning/compression
/// synergy), the live-row prefix, per-partition payload zone maps, and every
/// payload column packed with ChooseDiskEncoding's pick. An empty chunk gets
/// no key frame and no packed columns.
ChunkEncoding EncodeChunkRows(const ChunkRows& rows);

/// Stable per-partition sort by key: payload rows move with their keys and
/// equal keys keep their stored order, so the result is deterministic.
void SortWithinPartitions(ChunkRows* rows);

}  // namespace casper

#endif  // CASPER_STORAGE_CHUNK_ROWS_H_
