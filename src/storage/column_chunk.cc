#include "storage/column_chunk.h"

#include <algorithm>
#include <numeric>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

PartitionedColumnChunk PartitionedColumnChunk::Build(
    std::vector<Value> sorted_values, std::vector<size_t> partition_sizes,
    std::vector<size_t> ghosts) {
  return Build(std::move(sorted_values), std::move(partition_sizes),
               std::move(ghosts), Options());
}

PartitionedColumnChunk PartitionedColumnChunk::Build(
    std::vector<Value> sorted_values, std::vector<size_t> partition_sizes,
    std::vector<size_t> ghosts, Options options,
    const std::vector<std::vector<Payload>>& payload, size_t first_row) {
  const size_t m = sorted_values.size();
  CASPER_CHECK_MSG(m > 0, "cannot build an empty chunk");
  for (const std::vector<Payload>& col : payload) {
    CASPER_CHECK_MSG(col.size() >= first_row + m, "payload column too short");
  }
  CASPER_CHECK(std::is_sorted(sorted_values.begin(), sorted_values.end()));
  CASPER_CHECK_MSG(std::accumulate(partition_sizes.begin(), partition_sizes.end(),
                                   size_t{0}) == m,
                   "partition sizes must cover the data");
  if (ghosts.empty()) ghosts.assign(partition_sizes.size(), 0);
  CASPER_CHECK(ghosts.size() == partition_sizes.size());

  // Cut positions; slide each cut forward so no run of duplicates is split
  // (paper §4.1: "duplicate values should be in the same partition").
  std::vector<size_t> cuts(partition_sizes.size());
  size_t acc = 0;
  for (size_t t = 0; t < partition_sizes.size(); ++t) {
    acc += partition_sizes[t];
    cuts[t] = acc;
  }
  size_t prev = 0;
  for (size_t t = 0; t + 1 < cuts.size(); ++t) {
    size_t c = std::max(cuts[t], prev);
    while (c > 0 && c < m && sorted_values[c - 1] == sorted_values[c]) ++c;
    cuts[t] = std::min(c, m);
    prev = cuts[t];
  }
  cuts.back() = m;

  // Materialize partitions, merging any emptied by the slide into their
  // predecessor (their ghost budget is inherited).
  PartitionedColumnChunk chunk;
  chunk.opts_ = options;
  std::vector<Partition> parts;
  size_t begin_value = 0;
  size_t pending_ghosts = 0;
  for (size_t t = 0; t < cuts.size(); ++t) {
    const size_t sz = cuts[t] - begin_value;
    if (sz == 0) {
      pending_ghosts += ghosts[t];
      continue;
    }
    Partition p;
    p.size = sz;
    p.cap = sz + ghosts[t] + pending_ghosts;
    pending_ghosts = 0;
    p.min_val = sorted_values[begin_value];
    p.max_val = sorted_values[cuts[t] - 1];
    p.upper = p.max_val;
    parts.push_back(p);
    begin_value = cuts[t];
  }
  if (pending_ghosts > 0) parts.back().cap += pending_ghosts;
  parts.back().cap += options.spare_tail;

  // Lay out the buffers: each partition's rows followed by its free slots.
  size_t total_cap = 0;
  for (auto& p : parts) {
    p.begin = total_cap;
    total_cap += p.cap;
  }
  chunk.data_.assign(total_cap, 0);
  chunk.payload_.resize(payload.size());
  for (std::vector<Payload>& col : chunk.payload_) col.assign(total_cap, 0);
  chunk.row_scratch_.resize(payload.size());
  size_t src = 0;
  for (const auto& p : parts) {
    std::copy_n(sorted_values.begin() + static_cast<ptrdiff_t>(src), p.size,
                chunk.data_.begin() + static_cast<ptrdiff_t>(p.begin));
    for (size_t col = 0; col < payload.size(); ++col) {
      std::copy_n(payload[col].begin() + static_cast<ptrdiff_t>(first_row + src),
                  p.size,
                  chunk.payload_[col].begin() + static_cast<ptrdiff_t>(p.begin));
    }
    src += p.size;
  }
  chunk.live_ = m;
  chunk.parts_ = std::move(parts);
  chunk.inserts_.assign(chunk.parts_.size(), 0);

  std::vector<Value> uppers;
  uppers.reserve(chunk.parts_.size());
  for (const auto& p : chunk.parts_) uppers.push_back(p.upper);
  chunk.index_ = PartitionIndex(std::move(uppers));
  return chunk;
}

// --- Read path ---------------------------------------------------------------

size_t PartitionedColumnChunk::ProbePartition(Value v) const {
  const size_t t = index_.Route(v);
  const Partition& p = parts_[t];
  ++stats_.partitions_scanned;
  if (p.size == 0 || v < p.min_val || v > p.max_val) {
    ++stats_.partitions_pruned;
    return kNoPartition;
  }
  return t;
}

size_t PartitionedColumnChunk::CountEqual(Value v) const {
  const size_t t = ProbePartition(v);
  if (t == kNoPartition) return 0;
  const Partition& p = parts_[t];
  stats_.element_reads += p.size;
  return kernels::CountEqual(data_.data() + p.begin, p.size, v);
}

// --- Free-slot primitives -----------------------------------------------------

// The run primitives are inline: every ripple calls one per partition
// boundary, and the one-slot ripples (dense layout, updates) pay for an
// out-of-line call, about 15% of BM_InsertWithGhosts/0.
inline void PartitionedColumnChunk::MoveRows(const MoveRun& run) {
  CopyRun(data_.data(), run);
  for (std::vector<Payload>& col : payload_) CopyRun(col.data(), run);
}

inline void PartitionedColumnChunk::Publish(const RippleTally& tally) {
  if (tally.moves > 0) {
    stats_.element_reads += tally.moves;
    stats_.element_writes += tally.moves;
  }
  if (tally.steps > 0) stats_.ripple_steps += tally.steps;
}

inline void PartitionedColumnChunk::MoveFreeSlotLeft(size_t t, size_t k,
                                                     RippleTally& tally) {
  Partition& a = parts_[t];
  Partition& b = parts_[t + 1];
  CASPER_CHECK(b.free_slots() >= k);
  if (b.size > 0) {
    // Step j copies b's head element (begin + j) to its first free slot
    // (begin + size + j).
    MoveRows({static_cast<uint32_t>(b.begin),
              static_cast<uint32_t>(b.begin + b.size),
              static_cast<uint32_t>(k)});
    tally.moves += k;
  }
  b.begin += k;
  b.cap -= k;
  a.cap += k;
  tally.steps += k;
}

inline void PartitionedColumnChunk::MoveFreeSlotRight(size_t t, size_t k,
                                                      RippleTally& tally) {
  Partition& a = parts_[t];
  Partition& b = parts_[t + 1];
  CASPER_CHECK(a.free_slots() >= k);
  if (b.size > 0) {
    // Step j copies b's last element (begin + size - 1 - j) into the last
    // free slot of a's region (begin - 1 - j).
    MoveRows({static_cast<uint32_t>(b.begin + b.size - k),
              static_cast<uint32_t>(b.begin - k), static_cast<uint32_t>(k)});
    tally.moves += k;
  }
  a.cap -= k;
  b.begin -= k;
  b.cap += k;
  tally.steps += k;
}

size_t PartitionedColumnChunk::FindDonor(size_t m) const {
  const size_t k = parts_.size();
  for (size_t d = 1; d < k; ++d) {
    if (m + d < k && parts_[m + d].free_slots() > 0) return m + d;
    if (d <= m && parts_[m - d].free_slots() > 0) return m - d;
  }
  return static_cast<size_t>(-1);
}

// One column re-laid for a grow into a buffer of `wider` slots, each slot
// written once: partition t's live rows at its new begin, then zeros up to
// its cap widened by added[t].
template <typename T>
static std::vector<T> Relaid(const std::vector<T>& col,
                             const std::vector<PartitionedColumnChunk::Partition>& parts,
                             const std::vector<size_t>& added, size_t wider) {
  std::vector<T> out;
  out.reserve(wider);
  for (size_t t = 0; t < parts.size(); ++t) {
    const auto first = col.begin() + static_cast<ptrdiff_t>(parts[t].begin);
    out.insert(out.end(), first, first + static_cast<ptrdiff_t>(parts[t].size));
    out.resize(out.size() + parts[t].free_slots() + added[t], T{0});
  }
  return out;
}

void PartitionedColumnChunk::Grow(size_t m) {
  const size_t growth = std::max<size_t>(64, capacity() / 64);
  std::vector<size_t> added(parts_.size(), 0);
  if (opts_.dense) {
    added.back() = growth;
  } else {
    const size_t inserted =
        std::accumulate(inserts_.begin(), inserts_.end(), size_t{0});
    size_t given = 0;
    for (size_t t = 0; inserted > 0 && t < parts_.size(); ++t) {
      added[t] = growth * inserts_[t] / inserted;
      given += added[t];
    }
    added[m] += growth - given;
  }

  const size_t wider = capacity() + growth;
  data_ = Relaid(data_, parts_, added, wider);
  for (std::vector<Payload>& col : payload_) col = Relaid(col, parts_, added, wider);
  size_t begin = 0;
  for (size_t t = 0; t < parts_.size(); ++t) {
    parts_[t].begin = begin;
    parts_[t].cap += added[t];
    begin += parts_[t].cap;
  }
  inserts_.assign(parts_.size(), 0);
  Publish({live_, 0});
  ++stats_.grows;
}

void PartitionedColumnChunk::EnsureFreeSlot(size_t m) {
  if (parts_[m].free_slots() > 0) return;
  size_t donor = FindDonor(m);
  if (donor == static_cast<size_t>(-1)) {
    Grow(m);
    if (parts_[m].free_slots() > 0) return;
    donor = FindDonor(m);
  }
  const size_t batch =
      std::max<size_t>(1, std::min(opts_.ghost_batch, parts_[donor].free_slots()));
  RippleTally tally;
  if (donor > m) {
    for (size_t t = donor; t-- > m;) {
      MoveFreeSlotLeft(t, std::min(batch, parts_[t + 1].free_slots()), tally);
    }
  } else {
    for (size_t t = donor; t < m; ++t) {
      MoveFreeSlotRight(t, std::min(batch, parts_[t].free_slots()), tally);
    }
  }
  Publish(tally);
  CASPER_CHECK(parts_[m].free_slots() > 0);
}

// --- Write path ----------------------------------------------------------------

inline size_t PartitionedColumnChunk::FindRow(size_t t, Value v) const {
  const Partition& p = parts_[t];
  const size_t hit = kernels::FindFirstEqual(data_.data() + p.begin, p.size, v);
  stats_.element_reads += p.size;
  return hit == p.size ? kNoSlot : p.begin + hit;
}

inline void PartitionedColumnChunk::TakeRow(size_t t, size_t slot, Payload* row_out) {
  if (row_out != nullptr) {
    for (size_t col = 0; col < payload_.size(); ++col) row_out[col] = payload_[col][slot];
  }
  Partition& p = parts_[t];
  const size_t last = p.begin + p.size - 1;
  if (slot != last) {
    MoveRows({static_cast<uint32_t>(last), static_cast<uint32_t>(slot), 1});
    ++stats_.element_reads;
    ++stats_.element_writes;
  }
  p.size -= 1;
  live_ -= 1;
}

inline void PartitionedColumnChunk::PlaceRow(size_t t, Value v, const Payload* row) {
  Partition& p = parts_[t];
  const size_t slot = p.begin + p.size;
  data_[slot] = v;
  for (size_t col = 0; col < payload_.size(); ++col) payload_[col][slot] = row[col];
  p.size += 1;
  live_ += 1;
  p.min_val = std::min(p.min_val, v);
  p.max_val = std::max(p.max_val, v);
  ++inserts_[t];
  ++stats_.element_writes;
}

void PartitionedColumnChunk::Insert(Value v, const std::vector<Payload>& row) {
  CASPER_CHECK(row.size() == payload_.size());
  const size_t m = index_.Route(v);
  EnsureFreeSlot(m);
  PlaceRow(m, v, row.data());
}

size_t PartitionedColumnChunk::DeleteOne(Value v, std::vector<Payload>* row_out) {
  const size_t m = ProbePartition(v);
  if (m == kNoPartition) return 0;
  const size_t slot = FindRow(m, v);
  if (slot == kNoSlot) return 0;
  if (row_out != nullptr) row_out->resize(payload_.size());
  TakeRow(m, slot, row_out == nullptr ? nullptr : row_out->data());
  if (opts_.dense) {
    // Dense layout keeps the column contiguous: ripple the hole to the end.
    RippleTally tally;
    for (size_t t = m; t + 1 < parts_.size(); ++t) MoveFreeSlotRight(t, 1, tally);
    Publish(tally);
  }
  return 1;
}

bool PartitionedColumnChunk::Update(Value old_value, Value new_value) {
  const size_t i = ProbePartition(old_value);
  if (i == kNoPartition) return false;
  const size_t slot = FindRow(i, old_value);
  if (slot == kNoSlot) return false;
  const size_t j = index_.Route(new_value);

  if (i == j) {
    Partition& p = parts_[i];
    data_[slot] = new_value;
    ++stats_.element_writes;
    p.min_val = std::min(p.min_val, new_value);
    p.max_val = std::max(p.max_val, new_value);
    return true;
  }

  // Take the row out, leaving a free slot at the partition's tail (paper
  // Fig. 4b first phase), ripple that slot to the destination partition
  // (forward or backward), and place the row there.
  TakeRow(i, slot, row_scratch_.data());
  RippleTally tally;
  if (j > i) {
    for (size_t t = i; t < j; ++t) MoveFreeSlotRight(t, 1, tally);
  } else {
    for (size_t t = i; t-- > j;) MoveFreeSlotLeft(t, 1, tally);
  }
  Publish(tally);
  PlaceRow(j, new_value, row_scratch_.data());
  return true;
}

// --- Tiered storage -------------------------------------------------------------

void PartitionedColumnChunk::RestoreStorage(
    const std::vector<Value>& keys, const std::vector<std::vector<Payload>>& payload) {
  CASPER_CHECK(keys.size() == live_ && payload.size() == payload_.size());
  data_.assign(capacity(), 0);
  for (size_t col = 0; col < payload_.size(); ++col) {
    CASPER_CHECK(payload[col].size() == live_);
    payload_[col].assign(capacity(), 0);
  }
  size_t src = 0;
  for (const Partition& p : parts_) {
    const auto from = static_cast<ptrdiff_t>(src);
    const auto to = static_cast<ptrdiff_t>(p.begin);
    std::copy_n(keys.begin() + from, p.size, data_.begin() + to);
    for (size_t col = 0; col < payload_.size(); ++col) {
      std::copy_n(payload[col].begin() + from, p.size, payload_[col].begin() + to);
    }
    src += p.size;
  }
}

void PartitionedColumnChunk::ValidateInvariants() const {
  CASPER_CHECK(!parts_.empty());
  // A released chunk (evicted to its tier file) keeps only its geometry.
  const bool released = data_.empty();
  size_t expected_begin = 0;
  size_t live = 0;
  Value prev_upper = kMinValue;
  for (size_t t = 0; t < parts_.size(); ++t) {
    const Partition& p = parts_[t];
    CASPER_CHECK_MSG(p.begin == expected_begin, "partition regions not contiguous");
    CASPER_CHECK(p.size <= p.cap);
    expected_begin += p.cap;
    live += p.size;
    if (t > 0) CASPER_CHECK_MSG(p.upper > prev_upper, "uppers must increase");
    prev_upper = p.upper;
    if (released) continue;
    // Every live value routes back to this partition and fits the zonemap.
    for (size_t s = p.begin; s < p.begin + p.size; ++s) {
      CASPER_CHECK_MSG(index_.Route(data_[s]) == t, "routing invariant violated");
      CASPER_CHECK(data_[s] >= p.min_val && data_[s] <= p.max_val);
    }
  }
  CASPER_CHECK(released || expected_begin == data_.size());
  for (const std::vector<Payload>& col : payload_) {
    CASPER_CHECK(col.size() == data_.size());
  }
  CASPER_CHECK(live == live_);
}

}  // namespace casper
