#ifndef CASPER_PERSIST_COLD_SCAN_H_
#define CASPER_PERSIST_COLD_SCAN_H_

#include <cstdint>
#include <vector>

#include "persist/chunk_format.h"
#include "storage/chunk_rows.h"
#include "storage/table.h"
#include "storage/types.h"

namespace casper {
namespace persist {

/// Row-level reads over a parsed chunk file. Range scans and aggregates do
/// not live here: they run through the one partition evaluator
/// (storage/partition_scan.h), which reads a parsed file through the same
/// view as a resident chunk. What remains is the point lookup, routed through
/// the file's PartitionIndex (the routing resident chunks use), and the
/// decode that promotion and recovery need. Accounting lands on `stats` (the
/// chunk's resident ChunkStats, which survives eviction); disk_reads /
/// disk_bytes_read are bumped by the caller that loaded the file.

/// COUNT(key == key) with the first match's payload row; mirrors
/// PartitionedTable::PointLookup. `payload_out` may be nullptr.
size_t PointLookupPersisted(const PersistedChunk& f, Value key,
                            std::vector<Payload>* payload_out,
                            size_t payload_cols, ChunkStats* stats);

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
