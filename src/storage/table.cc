#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "exec/morsel.h"
#include "persist/chunk_format.h"
#include "persist/io.h"
#include "storage/partition_scan.h"
#include "util/status.h"

namespace casper {

PartitionedTable PartitionedTable::Build(std::vector<Value> sorted_keys,
                                         std::vector<std::vector<Payload>> payload_cols,
                                         std::vector<ChunkLayoutSpec> specs) {
  return Build(std::move(sorted_keys), std::move(payload_cols), std::move(specs),
               Options());
}

PartitionedTable PartitionedTable::Build(std::vector<Value> sorted_keys,
                                         std::vector<std::vector<Payload>> payload_cols,
                                         std::vector<ChunkLayoutSpec> specs,
                                         Options options) {
  CASPER_CHECK(!sorted_keys.empty());
  CASPER_CHECK(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  for (const auto& col : payload_cols) {
    CASPER_CHECK_MSG(col.size() == sorted_keys.size(),
                     "payload column length != row count");
  }
  // Chunk row counts are implied by the specs (each spec's partition sizes
  // sum to its chunk's row count); this lets callers use duplicate-safe
  // chunk cuts that deviate from a fixed chunk size.
  CASPER_CHECK(!specs.empty());
  std::vector<size_t> counts;
  counts.reserve(specs.size());
  size_t covered = 0;
  for (const auto& spec : specs) {
    const size_t n = std::accumulate(spec.partition_sizes.begin(),
                                     spec.partition_sizes.end(), size_t{0});
    CASPER_CHECK_MSG(n > 0, "empty chunk spec");
    counts.push_back(n);
    covered += n;
  }
  CASPER_CHECK_MSG(covered == sorted_keys.size(),
                   "chunk specs must cover all rows exactly");

  PartitionedTable table;
  table.opts_ = options;
  table.payload_cols_ = payload_cols.size();
  table.rows_ = sorted_keys.size();

  size_t offset = 0;
  for (size_t c = 0; c < counts.size(); ++c) {
    const size_t n = counts[c];
    std::vector<Value> keys(sorted_keys.begin() + static_cast<ptrdiff_t>(offset),
                            sorted_keys.begin() + static_cast<ptrdiff_t>(offset + n));
    PartitionedColumnChunk chunk = PartitionedColumnChunk::Build(
        std::move(keys), specs[c].partition_sizes, specs[c].ghosts, options.chunk,
        payload_cols, offset);
    table.chunk_uppers_.push_back(chunk.domain_upper());
    table.chunks_.push_back(std::make_unique<TableChunk>(std::move(chunk)));
    offset += n;
  }
  return table;
}

size_t PartitionedTable::RouteChunk(Value key) const {
  const auto it = std::lower_bound(chunk_uppers_.begin(), chunk_uppers_.end(), key);
  if (it == chunk_uppers_.end()) return chunks_.size() - 1;
  return static_cast<size_t>(std::distance(chunk_uppers_.begin(), it));
}

persist::PersistedChunk PartitionedTable::LoadEvicted(const TableChunk& ch) const {
  persist::PersistedChunk pc;
  const Status s = persist::ChunkReader::Read(ch.evicted, &pc);
  CASPER_CHECK_MSG(s.ok(), "tier chunk file unreadable");
  const auto& parts = ch.chunk.partitions();
  bool same = pc.parts.size() == parts.size();
  for (size_t t = 0; same && t < parts.size(); ++t) {
    const auto& f = pc.parts[t];
    same = f.size == parts[t].size && f.cap == parts[t].cap &&
           f.upper == parts[t].upper;
  }
  CASPER_CHECK_MSG(same, "tier chunk file " << ch.evicted
                             << " does not match the chunk's geometry");
  ChunkStats& stats = ch.chunk.stats();
  ++stats.disk_reads;
  stats.disk_bytes_read.Add(pc.file_bytes);
  return pc;
}

template <typename Fn>
auto PartitionedTable::WithRows(const TableChunk& ch, Fn&& fn) const {
  if (ch.evicted.empty()) return fn(PartitionSource::Resident(ch.chunk));
  const persist::PersistedChunk pc = LoadEvicted(ch);
  return fn(PartitionSource::File(ch.chunk, pc.encoding));
}

size_t PartitionedTable::PointLookup(Value key,
                                     std::vector<Payload>* payload_out) const {
  if (payload_out != nullptr) payload_out->clear();
  const TableChunk& ch = *chunks_[RouteChunk(key)];
  SharedChunkGuard guard(ch.latch);
  // Probe the resident geometry first: a miss it proves opens no tier file.
  const size_t t = ch.chunk.ProbePartition(key);
  if (t == PartitionedColumnChunk::kNoPartition) return 0;
  ChunkStats* stats = &ch.chunk.stats();
  return WithRows(ch, [&](const PartitionSource& src) {
    return PointRead(src, t, key, payload_out, stats);
  });
}

ScanPartial PartitionedTable::ScanSpecInChunk(size_t c, const ScanSpec& spec) const {
  if (!spec.RefsValid(payload_cols_) || spec.EmptyKeyRange() ||
      (!spec.full_domain && !ChunkOverlapsRange(c, spec.lo, spec.hi))) {
    return ScanPartial();
  }
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  ChunkStats* stats = &ch.chunk.stats();
  if (CountsPartitionSizes(spec)) {
    // Sizes only: the chunk's geometry answers in either tier, with no rows.
    return ScanPartitions(spec, PartitionSource::Resident(ch.chunk), stats);
  }
  return WithRows(ch, [&](const PartitionSource& src) {
    return ScanPartitions(spec, src, stats);
  });
}

void PartitionedTable::Insert(Value key, const std::vector<Payload>& payload) {
  TableChunk& ch = *chunks_[RouteChunk(key)];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  ch.chunk.Insert(key, payload);
  ++rows_;
}

size_t PartitionedTable::Delete(Value key) {
  TableChunk& ch = *chunks_[RouteChunk(key)];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  const size_t n = ch.chunk.DeleteOne(key);
  if (n > 0) rows_.Sub(1);
  return n;
}

bool PartitionedTable::MoveRowAcrossChunks(TableChunk& src, TableChunk& dst,
                                           Value old_key, Value new_key) {
  EnsureResidentLocked(src);
  EnsureResidentLocked(dst);
  std::vector<Payload> row;
  if (src.chunk.DeleteOne(old_key, &row) == 0) return false;
  dst.chunk.Insert(new_key, row);
  return true;
}

bool PartitionedTable::UpdateKey(Value old_key, Value new_key) {
  const size_t c_old = RouteChunk(old_key);
  const size_t c_new = RouteChunk(new_key);
  if (c_old == c_new) {
    TableChunk& ch = *chunks_[c_old];
    ExclusiveChunkGuard guard(ch.latch);
    EnsureResidentLocked(ch);
    return ch.chunk.Update(old_key, new_key);
  }
  // Cross-chunk update: take the row out of the source chunk and insert it
  // in the destination chunk under its new key. Both chunk latches are
  // held for the whole move so no reader sees the row absent from both;
  // ascending-index acquisition (checked by AssertLatchOrdered, one branch
  // per direction so the analysis sees exactly which latches are held) keeps
  // concurrent updaters deadlock-free.
  if (c_old < c_new) {
    AssertLatchOrdered(c_old, c_new);
    TableChunk& src = *chunks_[c_old];
    TableChunk& dst = *chunks_[c_new];
    ExclusiveChunkGuard src_guard(src.latch);
    ExclusiveChunkGuard dst_guard(dst.latch);
    return MoveRowAcrossChunks(src, dst, old_key, new_key);
  }
  AssertLatchOrdered(c_new, c_old);
  TableChunk& dst = *chunks_[c_new];
  TableChunk& src = *chunks_[c_old];
  ExclusiveChunkGuard dst_guard(dst.latch);
  ExclusiveChunkGuard src_guard(src.latch);
  return MoveRowAcrossChunks(src, dst, old_key, new_key);
}

size_t PartitionedTable::ApplyWriteRun(const std::vector<BatchWrite>& run,
                                       ThreadPool* pool) {
  // Route once: bucket op indices by destination chunk. Bucketing is stable,
  // so ops sharing a chunk (in particular, ops on the same key) keep their
  // relative order; ops on different chunks commute.
  std::vector<std::vector<uint32_t>> by_chunk(chunks_.size());
  for (size_t i = 0; i < run.size(); ++i) {
    if (run[i].is_insert) CASPER_CHECK(run[i].payload.size() == payload_cols_);
    by_chunk[RouteChunk(run[i].key)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<size_t> touched;
  for (size_t c = 0; c < by_chunk.size(); ++c) {
    if (!by_chunk[c].empty()) touched.push_back(c);
  }

  std::vector<size_t> inserted(chunks_.size(), 0);
  std::vector<size_t> removed(chunks_.size(), 0);
  auto apply_chunk = [&](size_t c) {
    // One exclusive hold per chunk group amortizes the latch over the run;
    // a concurrent ApplyWriteRun touching other chunks proceeds in parallel.
    TableChunk& ch = *chunks_[c];
    ExclusiveChunkGuard guard(ch.latch);
    EnsureResidentLocked(ch);
    for (const uint32_t idx : by_chunk[c]) {
      const BatchWrite& w = run[idx];
      if (w.is_insert) {
        ch.chunk.Insert(w.key, w.payload);
        ++inserted[c];
      } else if (ch.chunk.DeleteOne(w.key) > 0) {
        ++removed[c];
      }
    }
  };

  exec::MorselFor(pool, touched.size(), [&](size_t i) { apply_chunk(touched[i]); });

  size_t deleted = 0;
  for (const size_t c : touched) {
    rows_.Add(inserted[c]);
    rows_.Sub(removed[c]);
    deleted += removed[c];
  }
  return deleted;
}

size_t PartitionedTable::MemoryBytes() const {
  size_t bytes = 0;
  for (size_t c = 0; c < chunks_.size(); ++c) bytes += ChunkMemoryBytes(c);
  return bytes;
}

size_t PartitionedTable::RankKeysInChunk(size_t c, const Value* keys, size_t n,
                                         size_t* ranks) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  if (n > 0) {
    WithRows(ch, [&](const PartitionSource& src) { RankKeys(src, keys, n, ranks); });
  }
  return ch.chunk.size();
}

void PartitionedTable::SnapshotChunkPartitionSizes(size_t c,
                                                   std::vector<size_t>* out) const {
  out->clear();
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  for (const auto& p : ch.chunk.partitions()) out->push_back(p.size);
}

bool PartitionedTable::RepartitionChunk(size_t c, const ChunkLayoutSpec& spec) {
  if (spec.partition_sizes.empty()) return false;
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  if (ch.chunk.size() == 0) return false;  // Build requires live data
  ChunkRows rows = ch.chunk.Rows();
  SortWithinPartitions(&rows);
  const size_t n = rows.keys.size();

  // Clamp the requested cuts to the live count found at latch time: the plan
  // was made against an earlier snapshot and writes may have landed since.
  // Shrinkage empties trailing partitions (Build merges them away); growth
  // is absorbed by the last partition.
  ChunkLayoutSpec clamped = spec;
  std::vector<size_t>& sizes = clamped.partition_sizes;
  size_t cum = 0;
  for (size_t& size : sizes) {
    size = std::min(size, n - cum);
    cum += size;
  }
  sizes.back() += n - cum;
  clamped.ghosts.resize(sizes.size(), 0);
  // The access counters describe the data, not the geometry: they survive
  // the rebuild.
  const ChunkStatsSnapshot carry = ch.chunk.StatsSnapshot();
  ch.chunk = PartitionedColumnChunk::Build(
      std::move(rows.keys), std::move(sizes), std::move(clamped.ghosts),
      opts_.chunk, rows.payload);
  ch.chunk.stats().Restore(carry);
  return true;
}

ChunkRows PartitionedTable::SnapshotChunkRows(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  CASPER_CHECK_MSG(ch.evicted.empty(), "row snapshot of an evicted chunk");
  return ch.chunk.Rows();
}

bool PartitionedTable::EvictChunk(size_t c, const std::string& path) {
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  if (!ch.evicted.empty() || ch.chunk.size() == 0) return false;
  const persist::PersistedChunk pc =
      persist::ChunkWriter::Encode(c, ch.chunk.Rows());
  if (!persist::ChunkWriter::Write(path, pc).ok()) return false;
  ch.evicted = path;
  ch.chunk.ReleaseStorage();
  ++ch.chunk.stats().evictions;
  return true;
}

bool PartitionedTable::PromoteChunk(size_t c) {
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  if (ch.evicted.empty()) return false;
  EnsureResidentLocked(ch);
  return true;
}

void PartitionedTable::EnsureResidentLocked(TableChunk& ch) {
  if (ch.evicted.empty()) return;
  // LoadEvicted checked the file's partitions against the kept geometry, so
  // the rows fit their slots exactly.
  const ChunkRows rows = persist::DecodeChunkRows(LoadEvicted(ch));
  ch.chunk.RestoreStorage(rows);
  const std::string stale_path = std::move(ch.evicted);
  ch.evicted.clear();
  ++ch.chunk.stats().promotions;
  // The tier file is stale the moment the chunk is writable again; recovery
  // wipes the tier dir anyway, but don't leave bytes behind mid-run.
  persist::RemoveFileIfExists(stale_path);
}

bool PartitionedTable::ChunkResident(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  return ch.evicted.empty();
}

size_t PartitionedTable::ChunkMemoryBytes(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  return ch.evicted.empty() ? ch.chunk.capacity() * RowBytes() : 0;
}

size_t PartitionedTable::ChunkFootprintIfResident(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  return ch.chunk.capacity() * RowBytes();
}

uint64_t PartitionedTable::LayoutFingerprint() const {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const TableChunk& ch = *chunks_[c];
    SharedChunkGuard guard(ch.latch);
    // An evicted chunk keeps its geometry, so the fingerprint is stable
    // across evict/promote round trips.
    const auto& parts = ch.chunk.partitions();
    mix(parts.size());
    for (const auto& p : parts) {
      mix(p.begin);
      mix(p.cap);
      mix(static_cast<uint64_t>(p.upper));
    }
  }
  return h;
}

void PartitionedTable::ValidateInvariants() const {
  size_t live = 0;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const TableChunk& ch = *chunks_[c];
    SharedChunkGuard guard(ch.latch);
    ch.chunk.ValidateInvariants();
    CASPER_CHECK(ch.chunk.payload().size() == payload_cols_);
    live += ch.chunk.size();
    if (!ch.evicted.empty()) CASPER_CHECK(persist::FileExists(ch.evicted));
  }
  CASPER_CHECK(live == num_rows());
}

}  // namespace casper
