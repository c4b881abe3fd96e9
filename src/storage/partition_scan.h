#ifndef CASPER_STORAGE_PARTITION_SCAN_H_
#define CASPER_STORAGE_PARTITION_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/column_chunk.h"
#include "storage/compressed_cache.h"
#include "storage/partition_index.h"
#include "storage/types.h"

namespace casper {

namespace persist {
struct PersistedChunk;
}  // namespace persist

/// A view of one chunk for the partition evaluator: its partition geometry
/// and routing, plus whatever storage the chunk has right now — resident
/// key/payload arrays, an encoding (the warm cache entry, or the columns of
/// a parsed tier file), or both. The view hides the storage form, so hot,
/// warm and cold chunks scan through one partition walk (Hyrise's chunk:
/// segments of different encodings behind one reader). It owns nothing; the
/// caller keeps the chunk latched (or the parsed file alive) while it scans.
struct PartitionSource {
  /// Per-partition geometry: live size, key zone map, routing upper, and
  /// (resident only) the slot where the partition's rows begin.
  const PartitionedColumnChunk::Partition* parts = nullptr;
  size_t num_parts = 0;
  const PartitionIndex* index = nullptr;  ///< routes keys to partitions
  uint64_t rows = 0;                      ///< live rows

  /// Resident arrays, indexed by slot; both null when the chunk lives in a
  /// tier file, in which case `enc` holds every column.
  const Value* keys = nullptr;
  const std::vector<std::vector<Payload>>* cols = nullptr;

  /// Key frames (frames == non-empty partitions), packed payload columns,
  /// live-row prefix and payload zone maps; null for a resident chunk the
  /// cache has not encoded.
  const ChunkEncoding* enc = nullptr;

  static PartitionSource Resident(
      const PartitionedColumnChunk& chunk,
      const std::vector<std::vector<Payload>>& payload,
      const ChunkEncoding* enc);
  static PartitionSource File(const persist::PersistedChunk& f);
};

/// The one per-chunk evaluator of a ScanSpec — the paper's range read
/// (Fig. 3c): route to the boundary partitions, prune by zone map, consume
/// the middle partitions without reading them.
///  - Full-domain counts add up partition sizes.
///  - Key-range counts with an encoding count the packed key frames.
///  - Everything else walks the routed partitions: key zone-map skip and
///    blind consume, payload zone-map prune and predicate override, then
///    exec::EvalSpecRows on the partition's rows. A file-backed view decodes
///    the referenced payload columns of each surviving partition into
///    scratch, and its keys only where the key predicate must be checked.
/// Counters land on `stats`; rows decoded from a tier file count as element
/// reads. The caller validates column references (ScanSpec::RefsValid).
ScanPartial ScanPartitions(const ScanSpec& spec, const PartitionSource& src,
                           ChunkStats* stats);

}  // namespace casper

#endif  // CASPER_STORAGE_PARTITION_SCAN_H_
