#ifndef CASPER_STORAGE_PARTITION_SCAN_H_
#define CASPER_STORAGE_PARTITION_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/chunk_rows.h"
#include "storage/column_chunk.h"
#include "storage/partition_index.h"
#include "storage/types.h"

namespace casper {

namespace persist {
struct PersistedChunk;
}  // namespace persist

/// A view of one chunk for the partition evaluator: its partition geometry
/// and routing, plus the chunk's one storage form right now — resident
/// key/payload arrays, or the encoding of a parsed chunk file, never both.
/// The view hides the storage form, so resident and evicted chunks scan
/// through one partition walk (Hyrise's chunk: segments of different
/// encodings behind one reader). It owns nothing; the caller keeps the chunk
/// latched (or the parsed file alive) while it scans.
struct PartitionSource {
  /// Per-partition geometry: live size, key zone map, routing upper, and
  /// (resident only) the slot where the partition's rows begin.
  const PartitionedColumnChunk::Partition* parts = nullptr;
  size_t num_parts = 0;
  const PartitionIndex* index = nullptr;  ///< routes keys to partitions
  uint64_t rows = 0;                      ///< live rows

  /// Resident arrays, indexed by slot; both null for a file-backed view.
  const Value* keys = nullptr;
  const std::vector<std::vector<Payload>>* cols = nullptr;

  /// A file-backed view's columns: key frames (frames == non-empty
  /// partitions), packed payload columns, live-row prefix and payload zone
  /// maps; null for a resident view.
  const ChunkEncoding* enc = nullptr;

  static PartitionSource Resident(
      const PartitionedColumnChunk& chunk,
      const std::vector<std::vector<Payload>>& payload);
  static PartitionSource File(const persist::PersistedChunk& f);
};

/// The one per-chunk evaluator of a ScanSpec — the paper's range read
/// (Fig. 3c): route to the boundary partitions, prune by zone map, consume
/// the middle partitions without reading them.
///  - Full-domain counts add up partition sizes.
///  - Everything else walks the routed partitions: key zone-map skip and
///    blind consume, then exec::EvalSpecRows on the partition's flat rows.
///    A file-backed view also prunes by payload zone map and drops
///    predicates a zone proves, and decodes the referenced payload columns
///    of each surviving partition into scratch, its keys only where the key
///    predicate must be checked (for a count, only at the boundaries).
/// Counters land on `stats`; rows decoded from a tier file count as element
/// reads. The caller validates column references (ScanSpec::RefsValid).
ScanPartial ScanPartitions(const ScanSpec& spec, const PartitionSource& src,
                           ChunkStats* stats);

}  // namespace casper

#endif  // CASPER_STORAGE_PARTITION_SCAN_H_
