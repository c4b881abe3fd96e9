#include "storage/partition_scan.h"

#include <algorithm>

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "exec/scan_kernels.h"

namespace casper {

PartitionSource PartitionSource::Resident(const PartitionedColumnChunk& chunk) {
  PartitionSource src;
  src.chunk = &chunk;
  return src;
}

PartitionSource PartitionSource::File(const PartitionedColumnChunk& chunk,
                                      const ChunkEncoding& enc) {
  PartitionSource src;
  src.chunk = &chunk;
  src.enc = &enc;
  return src;
}

const Value* PartitionSource::Keys(size_t t, std::vector<Value>* scratch) const {
  const PartitionedColumnChunk::Partition& p = chunk->partition(t);
  if (enc == nullptr) return chunk->raw_data().data() + p.begin;
  const size_t begin = enc->live_prefix[t];
  scratch->resize(p.size);
  for (size_t i = 0; i < p.size; ++i) (*scratch)[i] = enc->keys->Get(begin + i);
  return scratch->data();
}

bool CountsPartitionSizes(const ScanSpec& spec) {
  return spec.full_domain && spec.predicates.empty() &&
         spec.agg.kind == AggKind::kCount;
}

ScanPartial ScanPartitions(const ScanSpec& spec, const PartitionSource& src,
                           ChunkStats* stats) {
  ScanPartial out;
  const std::vector<PartitionedColumnChunk::Partition>& parts =
      src.chunk->partitions();
  if (CountsPartitionSizes(spec)) {
    // Every partition fully qualifies: consume the size counters.
    uint64_t scanned = 0;
    for (const PartitionedColumnChunk::Partition& p : parts) {
      out.count += p.size;
      scanned += (p.size != 0);
    }
    stats->partitions_scanned += scanned;
    return out;
  }
  if (spec.EmptyKeyRange() || src.chunk->size() == 0) return out;
  const bool count_only =
      spec.predicates.empty() && spec.agg.kind == AggKind::kCount;
  const ChunkEncoding* enc = src.enc;  // null for a resident view
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
  size_t last = parts.size() - 1;
  if (!spec.full_domain) {
    first = src.chunk->RoutePartition(spec.lo);
    last = src.chunk->RoutePartition(spec.hi - 1);
  }
  constexpr size_t kMaxLocalPreds = 16;
  PredicateSpec local_preds[kMaxLocalPreds];
  // What every partition's run shares, set once: copying it per partition
  // keeps the per-partition set-up to a few register moves.
  exec::SpecRows shared;
  shared.cols = enc == nullptr ? &src.chunk->payload() : &col_scratch;
  uint64_t scanned = 0;
  uint64_t pruned = 0;
  uint64_t reads = 0;
  uint64_t payload_scans = 0;
  uint64_t payload_pruned = 0;
  for (size_t t = first; t <= last && t < parts.size(); ++t) {
    const PartitionedColumnChunk::Partition& p = parts[t];
    if (p.size == 0) continue;
    ++scanned;
    bool check = false;
    if (!spec.full_domain) {
      if (p.min_val >= spec.hi || p.max_val < spec.lo) {
        ++pruned;  // zone map excluded it: nothing read
        continue;
      }
      // A boundary partition whose zone map sits inside [lo, hi) is consumed
      // without the key predicate, exactly like a middle partition.
      check = (t == first || t == last) &&
              !(p.min_val >= spec.lo && p.max_val < spec.hi);
    }
    if (count_only && !check) {
      // Key-range count: only a checked boundary partition reads its keys.
      out.count += p.size;  // blind consume (paper Fig. 3c)
      continue;
    }
    exec::SpecRows rows = shared;
    rows.n = p.size;
    rows.key_check = check;
    if (enc == nullptr) {
      rows.base = static_cast<uint32_t>(p.begin);
    } else {
      // Payload zone maps: a predicate disjoint from the zone skips the
      // partition without touching a value; a zone inside the predicate
      // range proves it for every live row, so it is dropped from this run.
      if (!spec.predicates.empty() &&
          spec.predicates.size() <= kMaxLocalPreds) {
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
      payload_scans += spec.TouchesPayload();
      for (size_t c = 0; c < col_scratch.size(); ++c) {
        if (!referenced[c]) continue;
        col_scratch[c].resize(p.size);
        for (size_t i = 0; i < p.size; ++i) {
          col_scratch[c][i] = enc->payload[c]->DecodeAt(begin + i);
        }
      }
    }
    reads += p.size;  // every row evaluated, in either tier
    // EvalSpecRows reads keys only where it checks the key predicate.
    if (check) rows.keys = src.Keys(t, &key_scratch);
    out.Merge(exec::EvalSpecRows(spec, rows));
  }
  if (scanned != 0) stats->partitions_scanned += scanned;
  if (pruned != 0) stats->partitions_pruned += pruned;
  if (reads != 0) stats->element_reads += reads;
  if (payload_scans != 0) stats->compressed_payload_scans += payload_scans;
  if (payload_pruned != 0) stats->payload_partitions_pruned += payload_pruned;
  return out;
}

size_t PointRead(const PartitionSource& src, size_t t, Value key,
                 std::vector<Payload>* payload_out, ChunkStats* stats) {
  if (payload_out != nullptr) payload_out->clear();
  const PartitionedColumnChunk::Partition& p = src.chunk->partition(t);
  std::vector<Value> scratch;
  const Value* keys = src.Keys(t, &scratch);
  stats->element_reads += p.size;
  // A count alone needs no first match, and the branch-free count kernel
  // outruns the early-exit search.
  if (payload_out == nullptr) return kernels::CountEqual(keys, p.size, key);
  const size_t hit = kernels::FindFirstEqual(keys, p.size, key);
  if (hit == p.size) return 0;
  if (src.enc == nullptr) {
    for (const auto& col : src.chunk->payload()) {
      payload_out->push_back(col[p.begin + hit]);
    }
  } else {
    const size_t row = src.enc->live_prefix[t] + hit;
    for (const auto& col : src.enc->payload) payload_out->push_back(col->DecodeAt(row));
  }
  return 1 + kernels::CountEqual(keys + hit + 1, p.size - hit - 1, key);
}

void RankKeys(const PartitionSource& src, const Value* keys, size_t n,
              size_t* ranks) {
  const PartitionedColumnChunk& chunk = *src.chunk;
  size_t summed = 0;  // partitions [0, summed) are counted in `before`
  size_t before = 0;
  std::vector<size_t> below;
  std::vector<Value> scratch;
  for (size_t i = 0; i < n;) {
    const size_t t = chunk.RoutePartition(keys[i]);
    size_t j = i + 1;
    while (j < n && chunk.RoutePartition(keys[j]) == t) ++j;
    for (; summed < t; ++summed) before += chunk.partition(summed).size;
    // One pass over the partition: a live key x is below every run key from
    // upper_bound(x) on, so bucket x there and prefix-sum the buckets.
    below.assign(j - i + 1, 0);
    const Value* live = src.Keys(t, &scratch);
    for (size_t r = 0; r < chunk.partition(t).size; ++r) {
      ++below[static_cast<size_t>(
          std::upper_bound(keys + i, keys + j, live[r]) - (keys + i))];
    }
    size_t rank = before;
    for (size_t k = i; k < j; ++k) {
      rank += below[k - i];
      ranks[k] = rank;
    }
    i = j;
  }
}

}  // namespace casper
