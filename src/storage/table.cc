#include "storage/table.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "model/encoding_advisor.h"
#include "persist/chunk_format.h"
#include "persist/cold_scan.h"
#include "persist/io.h"
#include "storage/partition_scan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace casper {

std::vector<size_t> PartitionedTable::ChunkRowCounts(size_t rows,
                                                     const Options& options) {
  std::vector<size_t> counts;
  size_t remaining = rows;
  while (remaining > 0) {
    const size_t take = std::min(remaining, options.chunk_values);
    counts.push_back(take);
    remaining -= take;
  }
  return counts;
}

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
        std::move(keys), specs[c].partition_sizes, specs[c].ghosts, options.chunk);

    // Payload arrays mirror the chunk's slot layout (values packed at the
    // head of each partition region, free slots zero-filled).
    std::vector<std::vector<Payload>> payload(table.payload_cols_);
    for (size_t col = 0; col < table.payload_cols_; ++col) {
      payload[col].assign(chunk.capacity(), 0);
    }
    size_t src = offset;
    for (size_t t = 0; t < chunk.num_partitions(); ++t) {
      const auto& p = chunk.partition(t);
      for (size_t s = 0; s < p.size; ++s) {
        for (size_t col = 0; col < table.payload_cols_; ++col) {
          payload[col][p.begin + s] = payload_cols[col][src + s];
        }
      }
      src += p.size;
    }
    table.chunk_uppers_.push_back(chunk.domain_upper());
    table.chunks_.push_back(
        std::make_unique<TableChunk>(std::move(chunk), std::move(payload)));
    offset += n;
  }
  table.compressed_.Reset(table.chunks_.size());
  return table;
}

CompressedChunkCache::EncodingPtr PartitionedTable::CompressedFor(
    size_t c, const TableChunk& ch) const {
  // The shared latch (held by the caller) pins the epoch at an even value,
  // so an encoding built or fetched here cannot straddle a write.
  // The compression-payoff gate lives in GetOrBuild; this lambda extracts
  // the chunk's live values (frames == partitions), asks the encoding
  // advisor for a per-column payload encoding, and records the payload zone
  // maps + live-row prefix that let scans prune and address packed rows.
  return compressed_.GetOrBuild(
      c, ch.latch.Epoch(), ch.keys.size(),
      [&]() -> CompressedChunkCache::EncodingPtr {
        // The analysis cannot see through GetOrBuild that this callback runs
        // on the caller's stack with the latch still held; re-assert it.
        ch.latch.AssertReaderHeld();
        std::vector<Value> values;
        std::vector<size_t> frames;
        const auto& chunk = ch.keys;
        chunk.LiveValues(&values, &frames);
        if (values.empty()) return nullptr;
        auto enc = std::make_shared<ChunkEncoding>();
        enc->keys = std::make_shared<FrameOfReferenceColumn>(values, frames);

        const size_t parts = chunk.num_partitions();
        enc->live_prefix.resize(parts + 1);
        size_t live = 0;
        for (size_t t = 0; t < parts; ++t) {
          enc->live_prefix[t] = live;
          live += chunk.partition(t).size;
        }
        enc->live_prefix[parts] = live;

        if (payload_cols_ > 0) {
          // Scan/update mix from the counters the read and write paths
          // already bump — the advisor keeps update-heavy chunks raw.
          const ChunkStatsSnapshot snap = chunk.StatsSnapshot();
          const uint64_t reads = snap.element_reads + snap.compressed_scans;
          enc->payload.resize(payload_cols_);
          enc->payload_zones.resize(payload_cols_);
          std::vector<Payload> vals;
          for (size_t col = 0; col < payload_cols_; ++col) {
            const std::vector<Payload>& raw = ch.payload[col];
            vals.clear();
            vals.reserve(live);
            auto& zones = enc->payload_zones[col];
            zones.resize(parts);
            for (size_t t = 0; t < parts; ++t) {
              const auto& p = chunk.partition(t);
              PayloadZone z;
              if (p.size > 0) {
                z.min = std::numeric_limits<Payload>::max();
                for (size_t s = p.begin; s < p.begin + p.size; ++s) {
                  const Payload v = raw[s];
                  z.min = std::min(z.min, v);
                  z.max = std::max(z.max, v);
                  vals.push_back(v);
                }
              }
              zones[t] = z;
            }
            enc->payload[col] =
                AdvisePayloadEncoding(vals, reads, snap.element_writes);
          }
        }
        return enc;
      });
}

size_t PartitionedTable::RouteChunk(Value key) const {
  const auto it = std::lower_bound(chunk_uppers_.begin(), chunk_uppers_.end(), key);
  if (it == chunk_uppers_.end()) return chunks_.size() - 1;
  return static_cast<size_t>(std::distance(chunk_uppers_.begin(), it));
}

persist::PersistedChunk PartitionedTable::LoadEvicted(const TableChunk& ch) const {
  persist::PersistedChunk pc;
  const Status s = persist::ChunkReader::Read(ch.evicted->path, &pc);
  CASPER_CHECK_MSG(s.ok(), "tier chunk file unreadable");
  ChunkStats& stats = ch.keys.stats();
  ++stats.disk_reads;
  stats.disk_bytes_read.Add(pc.file_bytes);
  return pc;
}

size_t PartitionedTable::PointLookup(Value key,
                                     std::vector<Payload>* payload_out) const {
  const size_t c = RouteChunk(key);
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  if (ch.evicted != nullptr) {
    const persist::PersistedChunk pc = LoadEvicted(ch);
    return persist::PointLookupPersisted(pc, key, payload_out, payload_cols_,
                                         &ch.keys.stats());
  }
  if (payload_out == nullptr || payload_cols_ == 0) {
    size_t n = ch.keys.CountEqual(key);
    if (payload_out != nullptr) payload_out->clear();
    return n;
  }
  std::vector<uint32_t> slots;
  ch.keys.CollectSlots(key, &slots);
  payload_out->clear();
  if (!slots.empty()) {
    payload_out->resize(payload_cols_);
    for (size_t col = 0; col < payload_cols_; ++col) {
      (*payload_out)[col] = ch.payload[col][slots.front()];
    }
  }
  return slots.size();
}

ScanPartial PartitionedTable::ScanSpecInChunk(size_t c, const ScanSpec& spec) const {
  if (!spec.RefsValid(payload_cols_) || spec.EmptyKeyRange() ||
      (!spec.full_domain && !ChunkOverlapsRange(c, spec.lo, spec.hi))) {
    return ScanPartial();
  }
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  ChunkStats* stats = &ch.keys.stats();
  if (ch.evicted != nullptr) {
    const persist::PersistedChunk pc = LoadEvicted(ch);
    return ScanPartitions(spec, PartitionSource::File(pc), stats);
  }
  // Range counts and specs that touch payload columns consult the encoding
  // cache (voting toward, or reusing, the chunk's ChunkEncoding); full-domain
  // counts and key-only specs never do.
  const bool count_only =
      spec.predicates.empty() && spec.agg.kind == AggKind::kCount;
  const bool wants_encoding =
      count_only ? !spec.full_domain : spec.TouchesPayload();
  const CompressedChunkCache::EncodingPtr enc =
      wants_encoding ? CompressedFor(c, ch) : nullptr;
  return ScanPartitions(
      spec, PartitionSource::Resident(ch.keys, ch.payload, enc.get()), stats);
}

void PartitionedTable::ApplyMoveLog(TableChunk& chunk, const MoveLog& log,
                                    const std::vector<Payload>* new_payload,
                                    std::vector<Payload>* stash) {
  if (payload_cols_ == 0) return;
  if (log.grew_to != MoveLog::kNone) {
    for (auto& col : chunk.payload) col.resize(log.grew_to, 0);
  }
  if (stash != nullptr && log.source_slot != MoveLog::kNone) {
    stash->resize(payload_cols_);
    for (size_t col = 0; col < payload_cols_; ++col) {
      (*stash)[col] = chunk.payload[col][log.source_slot];
    }
  }
  for (const auto& [from, to] : log.moves) {
    for (size_t col = 0; col < payload_cols_; ++col) {
      chunk.payload[col][to] = chunk.payload[col][from];
    }
  }
  if (log.touched_slot != MoveLog::kNone) {
    const std::vector<Payload>* row = new_payload != nullptr ? new_payload : stash;
    if (row != nullptr && !row->empty()) {
      for (size_t col = 0; col < payload_cols_; ++col) {
        chunk.payload[col][log.touched_slot] = (*row)[col];
      }
    }
  }
}

void PartitionedTable::Insert(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == payload_cols_);
  TableChunk& ch = *chunks_[RouteChunk(key)];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  MoveLog log;
  ch.keys.Insert(key, &log);
  ApplyMoveLog(ch, log, &payload, nullptr);
  ++rows_;
}

size_t PartitionedTable::Delete(Value key) {
  TableChunk& ch = *chunks_[RouteChunk(key)];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  MoveLog log;
  const size_t n = ch.keys.DeleteOne(key, &log);
  if (n > 0) {
    ApplyMoveLog(ch, log, nullptr, nullptr);
    rows_.Sub(1);
  }
  return n;
}

bool PartitionedTable::MoveRowAcrossChunks(TableChunk& src, TableChunk& dst,
                                           Value old_key, Value new_key) {
  EnsureResidentLocked(src);
  EnsureResidentLocked(dst);
  std::vector<uint32_t> slots;
  src.keys.CollectSlots(old_key, &slots);
  if (slots.empty()) return false;
  std::vector<Payload> row(payload_cols_);
  for (size_t col = 0; col < payload_cols_; ++col) {
    row[col] = src.payload[col][slots.front()];
  }
  MoveLog del_log;
  CASPER_CHECK(src.keys.DeleteOne(old_key, &del_log) == 1);
  ApplyMoveLog(src, del_log, nullptr, nullptr);
  MoveLog ins_log;
  dst.keys.Insert(new_key, &ins_log);
  ApplyMoveLog(dst, ins_log, &row, nullptr);
  return true;
}

bool PartitionedTable::UpdateKey(Value old_key, Value new_key) {
  const size_t c_old = RouteChunk(old_key);
  const size_t c_new = RouteChunk(new_key);
  if (c_old == c_new) {
    TableChunk& ch = *chunks_[c_old];
    ExclusiveChunkGuard guard(ch.latch);
    EnsureResidentLocked(ch);
    MoveLog log;
    std::vector<Payload> stash;
    if (!ch.keys.Update(old_key, new_key, &log)) return false;
    ApplyMoveLog(ch, log, nullptr, &stash);
    return true;
  }
  // Cross-chunk update: delete from the source chunk, reinsert in the
  // destination chunk, carrying the payload across. Both chunk latches are
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
    MoveLog log;
    for (const uint32_t idx : by_chunk[c]) {
      const BatchWrite& w = run[idx];
      log.Clear();
      if (w.is_insert) {
        ch.keys.Insert(w.key, &log);
        ApplyMoveLog(ch, log, &w.payload, nullptr);
        ++inserted[c];
      } else if (ch.keys.DeleteOne(w.key, &log) > 0) {
        ApplyMoveLog(ch, log, nullptr, nullptr);
        ++removed[c];
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1 && touched.size() > 1) {
    pool->ParallelFor(touched.size(), [&](size_t i) { apply_chunk(touched[i]); });
  } else {
    for (const size_t c : touched) apply_chunk(c);
  }

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
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const TableChunk& ch = *chunks_[c];
    SharedChunkGuard guard(ch.latch);
    bytes += ch.keys.capacity() * sizeof(Value);
    for (const auto& col : ch.payload) bytes += col.size() * sizeof(Payload);
  }
  // Cached compressed encodings are real resident bytes too.
  bytes += compressed_.MemoryBytes();
  return bytes;
}

namespace {

/// The geometry rank of RankKeysInChunk over one chunk's partitions:
/// `route(v)` is the chunk's partition routing and `for_each_key(t, fn)`
/// visits partition t's live keys. Keys are ascending, so the keys routing to
/// one partition form a run and the partitions before it are summed once.
template <typename Route, typename ForEachKey>
void RankByPartition(const std::vector<PartitionedColumnChunk::Partition>& parts,
                     const Value* keys, size_t n, size_t* ranks, Route&& route,
                     ForEachKey&& for_each_key) {
  size_t summed = 0;  // partitions [0, summed) are counted in `before`
  size_t before = 0;
  std::vector<size_t> below;
  for (size_t i = 0; i < n;) {
    const size_t t = route(keys[i]);
    size_t j = i + 1;
    while (j < n && route(keys[j]) == t) ++j;
    for (; summed < t; ++summed) before += parts[summed].size;
    // One pass over the partition: a live key x is below every run key from
    // upper_bound(x) on, so bucket x there and prefix-sum the buckets.
    below.assign(j - i + 1, 0);
    for_each_key(t, [&](Value x) {
      ++below[static_cast<size_t>(std::upper_bound(keys + i, keys + j, x) -
                                  (keys + i))];
    });
    size_t rank = before;
    for (size_t k = i; k < j; ++k) {
      rank += below[k - i];
      ranks[k] = rank;
    }
    i = j;
  }
}

}  // namespace

size_t PartitionedTable::RankKeysInChunk(size_t c, const Value* keys, size_t n,
                                         size_t* ranks) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  if (ch.evicted != nullptr) {
    const size_t rows = static_cast<size_t>(ch.evicted->rows);
    if (n == 0) return rows;
    const persist::PersistedChunk pc = LoadEvicted(ch);
    const ChunkEncoding& enc = pc.encoding;
    RankByPartition(
        pc.parts, keys, n, ranks, [&](Value v) { return pc.index.Route(v); },
        [&](size_t t, auto&& fn) {
          for (size_t i = enc.live_prefix[t]; i < enc.live_prefix[t + 1]; ++i) {
            fn(enc.keys->Get(i));
          }
        });
    return rows;
  }
  const PartitionedColumnChunk& chunk = ch.keys;
  const std::vector<Value>& data = chunk.raw_data();
  RankByPartition(
      chunk.partitions(), keys, n, ranks,
      [&](Value v) { return chunk.RoutePartition(v); },
      [&](size_t t, auto&& fn) {
        const auto& p = chunk.partition(t);
        for (size_t s = p.begin; s < p.begin + p.size; ++s) fn(data[s]);
      });
  return chunk.size();
}

void PartitionedTable::SnapshotChunkPartitionSizes(size_t c,
                                                   std::vector<size_t>* out) const {
  out->clear();
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  const auto& parts =
      ch.evicted != nullptr ? ch.evicted->parts : ch.keys.partitions();
  for (const auto& p : parts) out->push_back(p.size);
}

bool PartitionedTable::RepartitionChunk(size_t c, const ChunkLayoutSpec& spec) {
  if (spec.partition_sizes.empty()) return false;
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  EnsureResidentLocked(ch);
  if (ch.keys.size() == 0) return false;  // Build requires live data
  RepartitionChunkLocked(ch, spec);
  return true;
}

void PartitionedTable::RepartitionChunkLocked(TableChunk& ch,
                                              const ChunkLayoutSpec& spec) {
  const PartitionedColumnChunk& old_chunk = ch.keys;
  const size_t n = old_chunk.size();

  // Extract the live rows in key order: walk partitions (disjoint ascending
  // ranges), sort each partition's live slots by key, and record the slot
  // order so payload rows travel with their keys.
  std::vector<Value> keys;
  keys.reserve(n);
  std::vector<uint32_t> slots;
  slots.reserve(n);
  const std::vector<Value>& data = old_chunk.raw_data();
  std::vector<uint32_t> part_slots;
  for (size_t t = 0; t < old_chunk.num_partitions(); ++t) {
    const auto& p = old_chunk.partition(t);
    part_slots.clear();
    part_slots.reserve(p.size);
    for (size_t s = p.begin; s < p.begin + p.size; ++s) {
      part_slots.push_back(static_cast<uint32_t>(s));
    }
    std::stable_sort(part_slots.begin(), part_slots.end(),
                     [&](uint32_t a, uint32_t b) { return data[a] < data[b]; });
    for (const uint32_t s : part_slots) {
      keys.push_back(data[s]);
      slots.push_back(s);
    }
  }

  // Clamp the requested cuts to the live count found at latch time: the plan
  // was made against an earlier snapshot and writes may have landed since.
  // Shrinkage empties trailing partitions (Build merges them away); growth
  // is absorbed by the last partition.
  std::vector<size_t> sizes = spec.partition_sizes;
  size_t cum = 0;
  for (size_t t = 0; t < sizes.size(); ++t) {
    sizes[t] = std::min(sizes[t], n - cum);
    cum += sizes[t];
  }
  sizes.back() += n - cum;
  std::vector<size_t> ghosts = spec.ghosts;
  ghosts.resize(sizes.size(), 0);

  // Gather payload rows in the same sorted-live order before the key swap
  // invalidates the old slot numbering.
  std::vector<std::vector<Payload>> rows_by_col(payload_cols_);
  for (size_t col = 0; col < payload_cols_; ++col) {
    rows_by_col[col].reserve(n);
    for (const uint32_t s : slots) {
      rows_by_col[col].push_back(ch.payload[col][s]);
    }
  }

  const ChunkStatsSnapshot carry = old_chunk.StatsSnapshot();
  PartitionedColumnChunk new_chunk = PartitionedColumnChunk::Build(
      std::move(keys), std::move(sizes), std::move(ghosts), opts_.chunk);

  std::vector<std::vector<Payload>> new_payload =
      PlacePayloadRows(new_chunk, rows_by_col);

  ch.keys = std::move(new_chunk);
  ch.payload = std::move(new_payload);
  // The access counters are frequency accounting the advisor and encoding
  // gates keep consuming; they describe the data, not the geometry, so they
  // survive the swap.
  RestoreChunkStats(ch.keys.stats(), carry);
}

std::vector<std::vector<Payload>> PartitionedTable::PlacePayloadRows(
    const PartitionedColumnChunk& chunk,
    const std::vector<std::vector<Payload>>& rows_by_col) const {
  // Payload arrays mirror the new slot layout (values packed at the head of
  // each partition region, free slots zero-filled) — same packing as Build.
  std::vector<std::vector<Payload>> new_payload(payload_cols_);
  for (size_t col = 0; col < payload_cols_; ++col) {
    new_payload[col].assign(chunk.capacity(), 0);
  }
  size_t src = 0;
  for (size_t t = 0; t < chunk.num_partitions(); ++t) {
    const auto& p = chunk.partition(t);
    for (size_t s = 0; s < p.size; ++s) {
      for (size_t col = 0; col < payload_cols_; ++col) {
        new_payload[col][p.begin + s] = rows_by_col[col][src + s];
      }
    }
    src += p.size;
  }
  return new_payload;
}

void PartitionedTable::RestoreChunkStats(ChunkStats& stats,
                                         const ChunkStatsSnapshot& carry) {
  stats.element_reads.store(carry.element_reads);
  stats.element_writes.store(carry.element_writes);
  stats.ripple_steps.store(carry.ripple_steps);
  stats.partitions_scanned.store(carry.partitions_scanned);
  stats.partitions_pruned.store(carry.partitions_pruned);
  stats.blocks_scanned.store(carry.blocks_scanned);
  stats.compressed_scans.store(carry.compressed_scans);
  stats.compressed_payload_scans.store(carry.compressed_payload_scans);
  stats.payload_partitions_pruned.store(carry.payload_partitions_pruned);
  stats.grows.store(carry.grows);
  stats.evictions.store(carry.evictions);
  stats.promotions.store(carry.promotions);
  stats.disk_reads.store(carry.disk_reads);
  stats.disk_bytes_read.store(carry.disk_bytes_read);
}

void PartitionedTable::SnapshotForPersistLocked(
    const TableChunk& ch, std::vector<persist::ChunkPartitionMeta>* parts,
    std::vector<Value>* live_keys,
    std::vector<std::vector<Payload>>* live_payload) const {
  const auto& chunk = ch.keys;
  *parts = chunk.partitions();
  live_keys->clear();
  live_keys->reserve(chunk.size());
  live_payload->assign(payload_cols_, {});
  for (auto& col : *live_payload) col.reserve(chunk.size());
  const std::vector<Value>& data = chunk.raw_data();
  for (const auto& p : chunk.partitions()) {
    for (size_t s = p.begin; s < p.begin + p.size; ++s) {
      live_keys->push_back(data[s]);
      for (size_t col = 0; col < payload_cols_; ++col) {
        (*live_payload)[col].push_back(ch.payload[col][s]);
      }
    }
  }
}

void PartitionedTable::SnapshotChunkForPersist(
    size_t c, std::vector<persist::ChunkPartitionMeta>* parts,
    std::vector<Value>* live_keys,
    std::vector<std::vector<Payload>>* live_payload) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  CASPER_CHECK_MSG(ch.evicted == nullptr,
                   "persist snapshot of an evicted chunk");
  SnapshotForPersistLocked(ch, parts, live_keys, live_payload);
}

bool PartitionedTable::EvictChunk(size_t c, const std::string& path) {
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  if (ch.evicted != nullptr || ch.keys.size() == 0) return false;
  std::vector<persist::ChunkPartitionMeta> parts;
  std::vector<Value> live_keys;
  std::vector<std::vector<Payload>> live_payload;
  SnapshotForPersistLocked(ch, &parts, &live_keys, &live_payload);
  const persist::PersistedChunk pc = persist::ChunkWriter::Encode(
      c, std::move(parts), live_keys, live_payload);
  if (!persist::ChunkWriter::Write(path, pc).ok()) return false;
  ch.evicted = std::make_unique<persist::EvictedChunkState>(
      pc.ToEvictedState(path));
  ch.keys.ReleaseStorage();
  for (auto& col : ch.payload) {
    col.clear();
    col.shrink_to_fit();
  }
  ++ch.keys.stats().evictions;
  // The chunk stops consulting the encoding cache entirely; drop its slot so
  // the stale encoding's memory goes with the eviction.
  compressed_.Invalidate(c);
  return true;
}

bool PartitionedTable::PromoteChunk(size_t c) {
  TableChunk& ch = *chunks_[c];
  ExclusiveChunkGuard guard(ch.latch);
  if (ch.evicted == nullptr) return false;
  EnsureResidentLocked(ch);
  return true;
}

void PartitionedTable::EnsureResidentLocked(TableChunk& ch) {
  if (ch.evicted == nullptr) return;
  persist::PersistedChunk pc;
  const Status s = persist::ChunkReader::Read(ch.evicted->path, &pc);
  CASPER_CHECK_MSG(s.ok(), "tier chunk file unreadable during promotion");
  persist::PromotedChunkData data = persist::DecodeForPromotion(pc);
  // Build re-appends the configured spare tail to the last partition; the
  // stored caps already include it, so take it back out of the ghost budget
  // or the capacity envelope would creep on every evict/promote cycle.
  if (!data.ghosts.empty() && opts_.chunk.spare_tail > 0) {
    data.ghosts.back() -= std::min(data.ghosts.back(), opts_.chunk.spare_tail);
  }
  const ChunkStatsSnapshot carry = ch.keys.StatsSnapshot();
  PartitionedColumnChunk new_chunk =
      PartitionedColumnChunk::Build(std::move(data.sorted_keys),
                                    std::move(data.sizes),
                                    std::move(data.ghosts), opts_.chunk);
  std::vector<std::vector<Payload>> new_payload =
      PlacePayloadRows(new_chunk, data.payload);
  const std::string stale_path = ch.evicted->path;
  ch.keys = std::move(new_chunk);
  ch.payload = std::move(new_payload);
  ch.evicted.reset();
  RestoreChunkStats(ch.keys.stats(), carry);
  ChunkStats& stats = ch.keys.stats();
  ++stats.promotions;
  ++stats.disk_reads;
  stats.disk_bytes_read.Add(pc.file_bytes);
  // The tier file is stale the moment the chunk is writable again; recovery
  // wipes the tier dir anyway, but don't leave bytes behind mid-run.
  persist::RemoveFileIfExists(stale_path);
}

bool PartitionedTable::ChunkResident(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  return ch.evicted == nullptr;
}

size_t PartitionedTable::ChunkMemoryBytes(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  size_t bytes = ch.keys.capacity() * sizeof(Value);
  for (const auto& col : ch.payload) bytes += col.size() * sizeof(Payload);
  return bytes;
}

size_t PartitionedTable::ChunkFootprintIfResident(size_t c) const {
  const TableChunk& ch = *chunks_[c];
  SharedChunkGuard guard(ch.latch);
  if (ch.evicted != nullptr) {
    return static_cast<size_t>(ch.evicted->capacity) *
           (sizeof(Value) + payload_cols_ * sizeof(Payload));
  }
  size_t bytes = ch.keys.capacity() * sizeof(Value);
  for (const auto& col : ch.payload) bytes += col.size() * sizeof(Payload);
  return bytes;
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
    // Evicted chunks contribute the geometry recorded at eviction time, so
    // the fingerprint is stable across evict/promote round trips.
    const auto& parts =
        ch.evicted != nullptr ? ch.evicted->parts : ch.keys.partitions();
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
    if (ch.evicted != nullptr) {
      // Cold chunk: storage is released; the eviction record must still
      // account for every live row and the tier file must be readable.
      uint64_t recorded = 0;
      for (const auto& p : ch.evicted->parts) {
        CASPER_CHECK(p.size <= p.cap);
        recorded += p.size;
      }
      CASPER_CHECK(recorded == ch.evicted->rows);
      CASPER_CHECK(ch.keys.size() == ch.evicted->rows);
      for (const auto& col : ch.payload) CASPER_CHECK(col.empty());
      CASPER_CHECK(persist::FileExists(ch.evicted->path));
      live += ch.keys.size();
      continue;
    }
    ch.keys.ValidateInvariants();
    live += ch.keys.size();
    for (const auto& col : ch.payload) {
      CASPER_CHECK(col.size() == ch.keys.capacity());
    }
  }
  CASPER_CHECK(live == num_rows());
}

}  // namespace casper
