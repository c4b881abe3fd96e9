#ifndef CASPER_PERSIST_COLD_SCAN_H_
#define CASPER_PERSIST_COLD_SCAN_H_

#include <cstdint>
#include <vector>

#include "persist/chunk_format.h"
#include "storage/types.h"

namespace casper {
namespace persist {

/// Row-level reads over a parsed chunk file. Range scans and aggregates do
/// not live here: they run through the one partition evaluator
/// (storage/partition_scan.h), which reads a parsed file through the same
/// view as a resident chunk. What remains is the point lookup and the decode
/// that promotion needs, both routed through the file's PartitionIndex — the
/// routing resident chunks use. Accounting lands on `stats` (the chunk's
/// resident ChunkStats, which survives eviction); disk_reads /
/// disk_bytes_read are bumped by the caller that loaded the file.

/// COUNT(key == key) with the first match's payload row; mirrors
/// PartitionedTable::PointLookup. `payload_out` may be nullptr.
size_t PointLookupPersisted(const PersistedChunk& f, Value key,
                            std::vector<Payload>* payload_out,
                            size_t payload_cols, ChunkStats* stats);

/// Everything promotion needs to rebuild the chunk in memory through the
/// deterministic Build path: live rows sorted by key (partitions are
/// range-disjoint and ordered, so a stable per-partition sort yields the
/// globally sorted order Build requires), payload columns aligned to that
/// order, and the per-partition size/ghost vectors that reproduce the stored
/// capacity envelope.
struct PromotedChunkData {
  std::vector<Value> sorted_keys;
  std::vector<std::vector<Payload>> payload;  ///< [col][row], aligned
  std::vector<size_t> sizes;                  ///< per partition (empties kept)
  std::vector<size_t> ghosts;                 ///< cap - size per partition
};
PromotedChunkData DecodeForPromotion(const PersistedChunk& f);

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_COLD_SCAN_H_
