#ifndef CASPER_PERSIST_COLD_SCAN_H_
#define CASPER_PERSIST_COLD_SCAN_H_

#include <cstddef>

#include "persist/chunk_format.h"
#include "storage/chunk_rows.h"
#include "storage/table.h"
#include "storage/types.h"

namespace casper {
namespace persist {

/// The decode that promotion and recovery need. Reads of an evicted chunk do
/// not live here: the chunk keeps its geometry resident, and the one partition
/// walk, point read and rank walk (storage/partition_scan.h) read a parsed
/// file's rows through the same view as a resident chunk's arrays.

/// A parsed chunk file decoded for a rebuild through the deterministic
/// Build path (promotion and recovery): the live rows sorted by key, and the
/// spec that reproduces the stored capacity envelope — per-partition sizes
/// (empties kept) and ghosts = cap - size, with `spare_tail` taken back out
/// of the last partition because Build re-appends it.
struct PromotedChunkData {
  ChunkRows rows;
  PartitionedTable::ChunkLayoutSpec spec;
};
PromotedChunkData DecodeForPromotion(const PersistedChunk& f, size_t spare_tail);

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_COLD_SCAN_H_
