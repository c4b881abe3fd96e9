#ifndef CASPER_PERSIST_CHUNK_FORMAT_H_
#define CASPER_PERSIST_CHUNK_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "storage/column_chunk.h"
#include "storage/chunk_rows.h"
#include "storage/types.h"
#include "util/status.h"

namespace casper {
namespace persist {

/// Chunk file format v1 (".cspr", little-endian, one flat buffer ending in a
/// CRC-32 of everything before it):
///
///   u32  magic 'CSPR'        u32  version
///   u64  chunk_index         u64  rows (live)        u64  payload_cols
///   u64  partitions
///   per partition:  u64 size | u64 cap | i64 upper | i64 min | i64 max
///   live_prefix:    u64 count | u64[count]           (partitions + 1)
///   keys (FoR):     u64 frames; per frame:
///                   i64 reference | i64 max | u64 begin | u64 count
///                   | u32 bit_width | u64 words | u64[words]
///   per payload column:
///                   u32 encoding (1 = FoR, 2 = dictionary) | u32 base
///                   u64 dict_size | u32[dict_size]    (sorted; empty for FoR)
///                   u64 count | u32 bit_width | u64 words | u64[words]
///                   per partition: u32 zone_min | u32 zone_max
///   u32  crc
///
/// The packed words are exactly the words EncodeChunkRows packs: the reader
/// reassembles BitPackedArrays from them verbatim (no re-encoding). Every
/// payload column is packed, with the encoding ChooseDiskEncoding picks.

constexpr uint32_t kChunkMagic = 0x52505343u;  // 'CSPR'
constexpr uint32_t kChunkFormatVersion = 1;

/// Partition geometry as persisted: the resident chunk's own partition record.
/// The file stores size, cap, upper and the key zone map; `begin` is not
/// stored — Parse restores it as the prefix sum of caps, the
/// contiguous-layout invariant.
using ChunkPartitionMeta = PartitionedColumnChunk::Partition;

/// A chunk file's contents in memory: writer input and reader output. After
/// Parse the encoded columns are live objects (FromFrames / FromParts) held
/// as one ChunkEncoding. The file supplies rows only: an evicted chunk keeps
/// its geometry resident, routes and prunes on it, and reads the encoding
/// through PartitionSource::File (storage/partition_scan.h) once its
/// partitions are checked against `parts`. Promotion and recovery decode it
/// whole (DecodeChunkRows).
struct PersistedChunk {
  uint32_t version = kChunkFormatVersion;
  uint64_t chunk_index = 0;
  uint64_t rows = 0;  ///< live rows
  std::vector<ChunkPartitionMeta> parts;
  /// keys: null iff rows == 0. payload: one packed column per payload column
  /// (all non-null when rows > 0). live_prefix: size parts + 1.
  /// payload_zones[c][t]: min/max of column c in partition t (live rows).
  ChunkEncoding encoding;
  /// Serialized size; filled by the reader for disk_bytes_read accounting.
  uint64_t file_bytes = 0;
};

class ChunkWriter {
 public:
  /// Pure encode: packs one chunk's live rows (ChunkRows, partition order)
  /// through EncodeChunkRows.
  static PersistedChunk Encode(uint64_t chunk_index, const ChunkRows& rows);

  /// Pure serialize: appends the v1 byte image (including trailing CRC).
  static void Serialize(const PersistedChunk& chunk, std::string* out);

  /// Serialize + durable atomic write (tmp -> fsync -> rename -> fsync dir).
  static Status Write(const std::string& path, const PersistedChunk& chunk);
};

/// The inverse of ChunkWriter::Encode: the file's live rows in partition
/// order, each partition's rows in the order they were stored, and its
/// partitions. Promotion copies them back into the geometry the evicted chunk
/// kept (PartitionedColumnChunk::RestoreStorage); recovery sorts them and
/// rebuilds.
ChunkRows DecodeChunkRows(const PersistedChunk& f);

class ChunkReader {
 public:
  /// Pure parse: validates magic, version, CRC and structural consistency
  /// (at least one partition, strictly increasing partition uppers,
  /// partition sizes vs rows, prefix sums, frame coverage, packed word
  /// counts, dictionary codes inside the dictionary) before reassembling
  /// the columns. Any violation is a clean Status, never a crash or
  /// out-of-bounds read.
  static Status Parse(const std::string& bytes, PersistedChunk* out);

  /// Read + Parse; fills out->file_bytes.
  static Status Read(const std::string& path, PersistedChunk* out);
};

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_CHUNK_FORMAT_H_
