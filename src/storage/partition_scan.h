#ifndef CASPER_STORAGE_PARTITION_SCAN_H_
#define CASPER_STORAGE_PARTITION_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/scan_spec.h"
#include "storage/chunk_rows.h"
#include "storage/column_chunk.h"
#include "storage/types.h"

namespace casper {

/// A view of one chunk for the reads below: the chunk itself, whose geometry
/// (partitions, zone maps, routing) is resident in both tiers, plus its rows
/// — the chunk's own key and payload arrays, or the encoding of its parsed
/// tier file. Resident and evicted chunks thus read through one partition
/// walk, one point read and one rank walk (Hyrise's chunk: metadata kept
/// apart from how its segments are stored), and count their reads by one
/// rule (ScanPartitions). A resident view of an evicted chunk serves only
/// CountsPartitionSizes specs. It owns nothing; the caller keeps the chunk
/// latched (and the parsed file alive) while it reads.
struct PartitionSource {
  const PartitionedColumnChunk* chunk = nullptr;
  /// A file-backed view's columns: key frames (frames == non-empty
  /// partitions), packed payload columns, live-row prefix and payload zone
  /// maps; null for a resident view, which reads the chunk's arrays.
  const ChunkEncoding* enc = nullptr;

  static PartitionSource Resident(const PartitionedColumnChunk& chunk);
  /// `enc` must hold the chunk's rows in the chunk's own geometry (the
  /// table checks a tier file's partitions before it builds this view).
  static PartitionSource File(const PartitionedColumnChunk& chunk,
                              const ChunkEncoding& enc);

  /// Partition t's live keys, in stored order: a pointer into the resident
  /// key array, or the key frame decoded into `scratch`.
  const Value* Keys(size_t t, std::vector<Value>* scratch) const;
};

/// True for a full-domain count: ScanPartitions answers it from the
/// partition sizes alone, so it reads no row and an evicted chunk answers it
/// without its tier file.
bool CountsPartitionSizes(const ScanSpec& spec);

/// The one per-chunk evaluator of a ScanSpec — the paper's range read
/// (Fig. 3c): route to the boundary partitions, prune by zone map, consume
/// the middle partitions without reading them.
///  - Full-domain counts add up partition sizes.
///  - Everything else walks the routed partitions: key zone-map skip and
///    blind consume, then exec::EvalSpecRows on the partition's flat rows.
///    A file-backed view also prunes by payload zone map and drops
///    predicates a zone proves, and decodes the referenced payload columns
///    of each surviving partition into scratch; keys are read only where the
///    key predicate must be checked (for a count, only at the boundaries).
/// Counters land on `stats`, by one rule in both tiers: every non-empty
/// partition the key range visits is scanned, every one its key zone map
/// excludes is also pruned, and every row evaluated is an element read —
/// all but a count's blind-consumed partitions and a file-backed view's
/// payload-pruned ones. The tier manager's heat reads these counters, so a
/// chunk earns the same heat from the same reads resident or evicted. The
/// caller validates column references (ScanSpec::RefsValid).
ScanPartial ScanPartitions(const ScanSpec& spec, const PartitionSource& src,
                           ChunkStats* stats);

/// The one point read (paper Fig. 3b), after the chunk's ProbePartition(key)
/// picked partition t: COUNT(key == key) over partition t and, unless
/// `payload_out` is null, the first match's payload row in it (left empty on
/// a miss). Counts the partition's rows as element reads on `stats`.
size_t PointRead(const PartitionSource& src, size_t t, Value key,
                 std::vector<Payload>* payload_out, ChunkStats* stats);

/// The geometry rank of the maintenance capture: for each of the `n`
/// ascending `keys`, the count of the chunk's live keys below it — the sizes
/// of the partitions before its routed partition plus one count inside it.
/// The keys routing to one partition form a run that reads it once.
void RankKeys(const PartitionSource& src, const Value* keys, size_t n,
              size_t* ranks);

}  // namespace casper

#endif  // CASPER_STORAGE_PARTITION_SCAN_H_
