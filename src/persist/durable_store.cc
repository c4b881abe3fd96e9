#include "persist/durable_store.h"

#include <algorithm>
#include <string>
#include <utility>

#include "persist/chunk_format.h"
#include "persist/io.h"

namespace casper {
namespace persist {

Status DurableStore::OpenJournal(uint64_t next_seq, size_t fsync_every) {
  MutexLock lock(mu_);
  return journal_.Open(layout_.JournalPath(), next_seq, fsync_every);
}

bool DurableStore::HasWrites(const Operation* ops, size_t n) {
  return std::any_of(ops, ops + n,
                     [](const Operation& op) { return IsWriteKind(op.kind); });
}

void DurableStore::AppendOpsLocked(const Operation* ops, size_t n) {
  std::vector<Operation> writes;
  for (size_t i = 0; i < n; ++i) {
    if (IsWriteKind(ops[i].kind)) writes.push_back(ops[i]);
  }
  const Status s = journal_.AppendOps(writes.data(), writes.size());
  CASPER_CHECK_MSG(s.ok(), "journal append failed");
}

void DurableStore::AppendRowsLocked(const Row* rows, size_t n) {
  if (n == 0) return;
  const Status s = journal_.AppendRows(rows, n);
  CASPER_CHECK_MSG(s.ok(), "journal append failed");
}

Status DurableStore::Flush() {
  MutexLock lock(mu_);
  return journal_.Flush();
}

Status CreateStore(const StoreLayout& layout, const PartitionedTable& table,
                   uint32_t layout_mode, uint64_t chunk_values) {
  Status s = layout.EnsureLayout();
  if (!s.ok()) return s;
  uint64_t base_rows = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    MaybeCrash("store:before_chunk");
    const PersistedChunk pc = ChunkWriter::Encode(c, table.SnapshotChunkRows(c));
    base_rows += pc.rows;
    s = ChunkWriter::Write(layout.BaseChunkPath(c), pc);
    if (!s.ok()) return s;
  }
  MaybeCrash("store:before_manifest");
  Manifest m;
  m.layout_mode = layout_mode;
  m.payload_cols = table.num_payload_columns();
  m.num_chunks = table.num_chunks();
  m.base_rows = base_rows;
  m.chunk_values = chunk_values;
  s = WriteManifest(layout.ManifestPath(), m);
  if (!s.ok()) return s;
  MaybeCrash("store:after_manifest");
  return Status::Ok();
}

Status LoadStore(const StoreLayout& layout, Manifest* manifest,
                 RecoveredTableData* out, size_t spare_tail) {
  Status s = ReadManifest(layout.ManifestPath(), manifest);
  if (!s.ok()) return s;
  out->keys.clear();
  out->payload.assign(manifest->payload_cols, {});
  out->specs.clear();
  out->specs.reserve(manifest->num_chunks);
  for (size_t c = 0; c < manifest->num_chunks; ++c) {
    PersistedChunk pc;
    s = ChunkReader::Read(layout.BaseChunkPath(c), &pc);
    if (!s.ok()) {
      return Status::Internal("base chunk " + std::to_string(c) + ": " +
                              std::string(s.message()));
    }
    if (pc.encoding.payload.size() != manifest->payload_cols) {
      return Status::Internal("base chunk payload column count mismatch");
    }
    // Sorted within each partition, the rows are in key order; the spec
    // keeps every partition (empties too) and its ghosts = cap - size, less
    // the spare tail Build re-appends to the last partition.
    ChunkRows rows = DecodeChunkRows(pc);
    SortWithinPartitions(&rows);
    PartitionedTable::ChunkLayoutSpec spec;
    for (const ChunkPartitionMeta& p : rows.parts) {
      spec.partition_sizes.push_back(p.size);
      spec.ghosts.push_back(p.cap - p.size);
    }
    spec.ghosts.back() -= std::min(spec.ghosts.back(), spare_tail);
    out->specs.push_back(std::move(spec));
    out->keys.insert(out->keys.end(), rows.keys.begin(), rows.keys.end());
    for (size_t col = 0; col < manifest->payload_cols; ++col) {
      out->payload[col].insert(out->payload[col].end(), rows.payload[col].begin(),
                               rows.payload[col].end());
    }
  }
  if (out->keys.size() != manifest->base_rows) {
    return Status::Internal("base rows mismatch vs manifest");
  }
  // Tier files are a cache of the durable truth and may postdate the last
  // committed run; recovery starts from base + journal only.
  for (size_t c = 0; c < manifest->num_chunks; ++c) {
    s = RemoveFileIfExists(layout.TierChunkPath(c));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace persist
}  // namespace casper
