#ifndef CASPER_PERSIST_EVICTED_CHUNK_H_
#define CASPER_PERSIST_EVICTED_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column_chunk.h"
#include "storage/types.h"

namespace casper {
namespace persist {

/// Partition geometry as persisted: the resident chunk's own partition record,
/// so resident and evicted chunks share one geometry type (and one partition
/// evaluator, storage/partition_scan.h). The file stores size, cap, upper and
/// the key zone map; `begin` is not stored — readers restore it as the prefix
/// sum of caps, the contiguous-layout invariant.
using ChunkPartitionMeta = PartitionedColumnChunk::Partition;

/// The resident-side remnant of a chunk demoted to disk: where its file
/// lives plus the geometry summary that answers metadata-only questions
/// (routing, fingerprinting, full-scan counts) with zero I/O. Kept inside
/// the TableChunk under the same latch that used to guard the values —
/// writes promote the chunk back before touching it, so this state is
/// always exactly the file's contents.
struct EvictedChunkState {
  std::string path;
  uint64_t rows = 0;      ///< live rows in the file
  uint64_t capacity = 0;  ///< sum of partition caps (bytes-if-promoted basis)
  std::vector<ChunkPartitionMeta> parts;
};

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_EVICTED_CHUNK_H_
