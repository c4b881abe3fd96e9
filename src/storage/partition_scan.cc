#include "storage/partition_scan.h"

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "persist/chunk_format.h"

namespace casper {

PartitionSource PartitionSource::Resident(
    const PartitionedColumnChunk& chunk,
    const std::vector<std::vector<Payload>>& payload) {
  PartitionSource src;
  src.parts = chunk.partitions().data();
  src.num_parts = chunk.num_partitions();
  src.index = &chunk.partition_index();
  src.rows = chunk.size();
  src.keys = chunk.raw_data().data();
  src.cols = &payload;
  return src;
}

PartitionSource PartitionSource::File(const persist::PersistedChunk& f) {
  PartitionSource src;
  src.parts = f.parts.data();
  src.num_parts = f.parts.size();
  src.index = &f.index;
  src.rows = f.rows;
  src.enc = &f.encoding;
  return src;
}

ScanPartial ScanPartitions(const ScanSpec& spec, const PartitionSource& src,
                           ChunkStats* stats) {
  ScanPartial out;
  const bool count_only =
      spec.predicates.empty() && spec.agg.kind == AggKind::kCount;
  if (count_only && spec.full_domain) {
    // Every partition fully qualifies: consume the size counters.
    uint64_t scanned = 0;
    for (size_t t = 0; t < src.num_parts; ++t) {
      out.count += src.parts[t].size;
      scanned += (src.parts[t].size != 0);
    }
    stats->partitions_scanned += scanned;
    return out;
  }
  if (spec.EmptyKeyRange() || src.rows == 0) return out;
  const ChunkEncoding* enc = src.enc;  // null for a resident view
  // One compressed scan per file-backed count: the tier manager's heat score
  // reads it.
  if (count_only && enc != nullptr) ++stats->compressed_scans;

  // A file-backed view decodes each surviving partition into scratch: the
  // payload columns the spec references, and the keys only where the key
  // predicate is checked (EvalSpecRows reads no key otherwise). Every one of
  // its payload columns is packed, and the flat scratch is all EvalSpecRows
  // sees.
  std::vector<Value> key_scratch;
  std::vector<std::vector<Payload>> col_scratch;
  std::vector<char> referenced;
  if (enc != nullptr) {
    col_scratch.resize(enc->payload.size());
    referenced.assign(enc->payload.size(), 0);
    for (const PredicateSpec& pr : spec.predicates) referenced[pr.col] = 1;
    for (const size_t c : spec.agg.cols) referenced[c] = 1;
  }

  size_t first = 0;
  size_t last = src.num_parts - 1;
  if (!spec.full_domain) {
    first = src.index->Route(spec.lo);
    last = src.index->Route(spec.hi - 1);
  }
  constexpr size_t kMaxLocalPreds = 16;
  PredicateSpec local_preds[kMaxLocalPreds];
  // What every partition's run shares, set once: copying it per partition
  // keeps the per-partition set-up to a few register moves.
  exec::SpecRows shared;
  shared.cols = enc == nullptr ? src.cols : &col_scratch;
  uint64_t scanned = 0;
  uint64_t pruned = 0;
  uint64_t reads = 0;
  uint64_t payload_scans = 0;
  uint64_t payload_pruned = 0;
  for (size_t t = first; t <= last && t < src.num_parts; ++t) {
    const PartitionedColumnChunk::Partition& p = src.parts[t];
    if (p.size == 0) continue;
    bool check = false;
    if (!spec.full_domain) {
      if (p.min_val >= spec.hi || p.max_val < spec.lo) {
        pruned += count_only;  // zone map excluded it: nothing read
        continue;
      }
      // A boundary partition whose zone map sits inside [lo, hi) is consumed
      // without the key predicate, exactly like a middle partition.
      check = (t == first || t == last) &&
              !(p.min_val >= spec.lo && p.max_val < spec.hi);
    }
    if (count_only) {
      // Key-range count: only a checked boundary partition reads its keys.
      ++scanned;
      if (!check) {
        out.count += p.size;  // blind consume (paper Fig. 3c)
        continue;
      }
      reads += p.size;
    }
    exec::SpecRows rows = shared;
    rows.n = p.size;
    rows.key_check = check;
    if (enc == nullptr) {
      rows.keys = src.keys + p.begin;
      rows.base = static_cast<uint32_t>(p.begin);
      out.Merge(exec::EvalSpecRows(spec, rows));
      continue;
    }
    // Payload zone maps: a predicate disjoint from the zone skips the
    // partition without touching a value; a zone inside the predicate range
    // proves it for every live row, so it is dropped from this run.
    if (!spec.predicates.empty() && spec.predicates.size() <= kMaxLocalPreds) {
      bool skip = false;
      size_t np = 0;
      for (const PredicateSpec& pr : spec.predicates) {
        const PayloadZone z = enc->payload_zones[pr.col][t];
        if (pr.lo > pr.hi || z.min > pr.hi || z.max < pr.lo) {
          skip = true;
          break;
        }
        if (pr.lo <= z.min && z.max <= pr.hi) continue;  // always true
        local_preds[np++] = pr;
      }
      if (skip) {
        ++payload_pruned;
        continue;
      }
      if (np < spec.predicates.size()) {
        rows.preds = local_preds;
        rows.npreds = np;
        rows.preds_override = true;
      }
    }
    // Scratch starts at the partition, so base stays 0.
    const size_t begin = enc->live_prefix[t];
    const size_t n = p.size;
    payload_scans += spec.TouchesPayload();
    if (check) {
      key_scratch.resize(n);
      for (size_t i = 0; i < n; ++i) key_scratch[i] = enc->keys->Get(begin + i);
      rows.keys = key_scratch.data();
    }
    for (size_t c = 0; c < col_scratch.size(); ++c) {
      if (!referenced[c]) continue;
      col_scratch[c].resize(n);
      for (size_t i = 0; i < n; ++i) {
        col_scratch[c][i] = enc->payload[c]->DecodeAt(begin + i);
      }
    }
    // Rows decoded from packed storage count as reads (a count's keys
    // already did, above).
    if (!count_only) reads += n;
    out.Merge(exec::EvalSpecRows(spec, rows));
  }
  if (scanned != 0) stats->partitions_scanned += scanned;
  if (pruned != 0) stats->partitions_pruned += pruned;
  if (reads != 0) stats->element_reads += reads;
  if (payload_scans != 0) stats->compressed_payload_scans += payload_scans;
  if (payload_pruned != 0) stats->payload_partitions_pruned += payload_pruned;
  return out;
}

}  // namespace casper
