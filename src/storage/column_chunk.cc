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
    std::vector<size_t> ghosts, Options options) {
  const size_t m = sorted_values.size();
  CASPER_CHECK_MSG(m > 0, "cannot build an empty chunk");
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

  // Lay out the buffer: each partition's values followed by its free slots.
  size_t total_cap = 0;
  for (auto& p : parts) {
    p.begin = total_cap;
    total_cap += p.cap;
  }
  chunk.data_.assign(total_cap, 0);
  size_t src = 0;
  for (const auto& p : parts) {
    std::copy(sorted_values.begin() + static_cast<ptrdiff_t>(src),
              sorted_values.begin() + static_cast<ptrdiff_t>(src + p.size),
              chunk.data_.begin() + static_cast<ptrdiff_t>(p.begin));
    src += p.size;
  }
  chunk.live_ = m;
  chunk.parts_ = std::move(parts);

  std::vector<Value> uppers;
  uppers.reserve(chunk.parts_.size());
  for (const auto& p : chunk.parts_) uppers.push_back(p.upper);
  chunk.index_ = PartitionIndex(std::move(uppers), options.index_fanout);
  return chunk;
}

// --- Read path ---------------------------------------------------------------

size_t PartitionedColumnChunk::CountEqual(Value v) const {
  const size_t t = index_.Route(v);
  const Partition& p = parts_[t];
  ++stats_.partitions_scanned;
  if (p.size == 0 || v < p.min_val || v > p.max_val) {
    ++stats_.partitions_pruned;
    return 0;
  }
  stats_.element_reads += p.size;
  return kernels::CountEqual(data_.data() + p.begin, p.size, v);
}

void PartitionedColumnChunk::CollectSlots(Value v, std::vector<uint32_t>* out) const {
  const size_t t = index_.Route(v);
  const Partition& p = parts_[t];
  ++stats_.partitions_scanned;
  if (p.size == 0 || v < p.min_val || v > p.max_val) {
    ++stats_.partitions_pruned;
    return;
  }
  stats_.element_reads += p.size;
  // Stream matches through a stack block instead of resize()-zeroing p.size
  // output slots that the kernel would mostly never write.
  constexpr size_t kBlock = 256;
  uint32_t slots[kBlock];
  const Value* d = data_.data() + p.begin;
  for (size_t off = 0; off < p.size; off += kBlock) {
    const size_t m = p.size - off < kBlock ? p.size - off : kBlock;
    const size_t k = kernels::FilterSlotsEqual(
        d + off, m, v, static_cast<uint32_t>(p.begin + off), slots);
    out->insert(out->end(), slots, slots + k);
  }
}

void PartitionedColumnChunk::LiveValues(std::vector<Value>* values,
                                        std::vector<size_t>* frame_sizes) const {
  values->clear();
  frame_sizes->clear();
  values->reserve(live_);
  for (const Partition& p : parts_) {
    if (p.size == 0) continue;
    values->insert(values->end(),
                   data_.begin() + static_cast<ptrdiff_t>(p.begin),
                   data_.begin() + static_cast<ptrdiff_t>(p.begin + p.size));
    frame_sizes->push_back(p.size);
  }
}

// --- Free-slot primitives -----------------------------------------------------

void PartitionedColumnChunk::MoveFreeSlotLeft(size_t t, MoveLog* log) {
  Partition& a = parts_[t];
  Partition& b = parts_[t + 1];
  CASPER_CHECK(b.free_slots() > 0);
  if (b.size > 0) {
    const size_t from = b.begin;           // head element of b
    const size_t to = b.begin + b.size;    // b's first free (tail) slot
    data_[to] = data_[from];
    ++stats_.element_reads;
    ++stats_.element_writes;
    if (log) log->moves.emplace_back(static_cast<uint32_t>(from),
                                     static_cast<uint32_t>(to));
  }
  b.begin += 1;
  b.cap -= 1;
  a.cap += 1;
  ++stats_.ripple_steps;
}

void PartitionedColumnChunk::MoveFreeSlotRight(size_t t, MoveLog* log) {
  Partition& a = parts_[t];
  Partition& b = parts_[t + 1];
  CASPER_CHECK(a.free_slots() > 0);
  const size_t slot = a.begin + a.cap - 1;  // last slot of a's region (free)
  if (b.size > 0) {
    const size_t from = b.begin + b.size - 1;  // last element of b
    data_[slot] = data_[from];
    ++stats_.element_reads;
    ++stats_.element_writes;
    if (log) log->moves.emplace_back(static_cast<uint32_t>(from),
                                     static_cast<uint32_t>(slot));
  }
  a.cap -= 1;
  b.begin -= 1;
  b.cap += 1;
  ++stats_.ripple_steps;
}

size_t PartitionedColumnChunk::FindDonor(size_t m) const {
  const size_t k = parts_.size();
  for (size_t d = 1; d < k; ++d) {
    if (m + d < k && parts_[m + d].free_slots() > 0) return m + d;
    if (d <= m && parts_[m - d].free_slots() > 0) return m - d;
  }
  return static_cast<size_t>(-1);
}

void PartitionedColumnChunk::Grow(MoveLog* log) {
  const size_t growth = std::max<size_t>(64, data_.size() / 64);
  data_.resize(data_.size() + growth, 0);
  parts_.back().cap += growth;
  ++stats_.grows;
  if (log) log->grew_to = static_cast<uint32_t>(data_.size());
}

void PartitionedColumnChunk::EnsureFreeSlot(size_t m, MoveLog* log) {
  if (parts_[m].free_slots() > 0) return;
  size_t donor = FindDonor(m);
  if (donor == static_cast<size_t>(-1)) {
    Grow(log);
    donor = parts_.size() - 1;
    if (donor == m) return;
  }
  const size_t batch =
      std::max<size_t>(1, std::min(opts_.ghost_batch, parts_[donor].free_slots()));
  if (donor > m) {
    for (size_t t = donor; t-- > m;) {
      const size_t avail = std::min(batch, parts_[t + 1].free_slots());
      for (size_t b = 0; b < avail; ++b) MoveFreeSlotLeft(t, log);
    }
  } else {
    for (size_t t = donor; t < m; ++t) {
      const size_t avail = std::min(batch, parts_[t].free_slots());
      for (size_t b = 0; b < avail; ++b) MoveFreeSlotRight(t, log);
    }
  }
  CASPER_CHECK(parts_[m].free_slots() > 0);
}

// --- Write path ----------------------------------------------------------------

void PartitionedColumnChunk::PrepareInsertSlot(Value v, MoveLog* log) {
  EnsureFreeSlot(index_.Route(v), log);
}

void PartitionedColumnChunk::Insert(Value v, MoveLog* log) {
  const size_t m = index_.Route(v);
  EnsureFreeSlot(m, log);
  Partition& p = parts_[m];
  const size_t slot = p.begin + p.size;
  data_[slot] = v;
  p.size += 1;
  live_ += 1;
  p.min_val = std::min(p.min_val, v);
  p.max_val = std::max(p.max_val, v);
  ++stats_.element_writes;
  if (log) log->touched_slot = static_cast<uint32_t>(slot);
}

size_t PartitionedColumnChunk::DeleteOne(Value v, MoveLog* log) {
  const size_t m = index_.Route(v);
  Partition& p = parts_[m];
  ++stats_.partitions_scanned;
  if (p.size == 0 || v < p.min_val || v > p.max_val) return 0;
  const Value* d = data_.data() + p.begin;
  const size_t hit = kernels::FindFirstEqual(d, p.size, v);
  stats_.element_reads += p.size;
  if (hit == p.size) return 0;
  const size_t pos = p.begin + hit;
  const size_t last = p.begin + p.size - 1;
  if (pos != last) {
    data_[pos] = data_[last];
    ++stats_.element_reads;
    ++stats_.element_writes;
    if (log) log->moves.emplace_back(static_cast<uint32_t>(last),
                                     static_cast<uint32_t>(pos));
  }
  p.size -= 1;
  live_ -= 1;
  if (opts_.dense) {
    // Dense layout keeps the column contiguous: ripple the hole to the end.
    for (size_t t = m; t + 1 < parts_.size(); ++t) MoveFreeSlotRight(t, log);
  }
  return 1;
}

bool PartitionedColumnChunk::Update(Value old_value, Value new_value, MoveLog* log) {
  const size_t i = index_.Route(old_value);
  Partition& p = parts_[i];
  ++stats_.partitions_scanned;
  if (p.size == 0 || old_value < p.min_val || old_value > p.max_val) return false;
  const Value* d = data_.data() + p.begin;
  const size_t hit = kernels::FindFirstEqual(d, p.size, old_value);
  stats_.element_reads += p.size;
  if (hit == p.size) return false;
  const size_t pos = p.begin + hit;

  const size_t j = index_.Route(new_value);
  if (log) log->source_slot = static_cast<uint32_t>(pos);

  if (i == j) {
    data_[pos] = new_value;
    ++stats_.element_writes;
    p.min_val = std::min(p.min_val, new_value);
    p.max_val = std::max(p.max_val, new_value);
    if (log) log->touched_slot = static_cast<uint32_t>(pos);
    return true;
  }

  // Detach the old value: swap it out with the partition's last element,
  // leaving a free slot at the tail (paper Fig. 4b first phase).
  const size_t last = p.begin + p.size - 1;
  if (pos != last) {
    data_[pos] = data_[last];
    ++stats_.element_reads;
    ++stats_.element_writes;
    if (log) log->moves.emplace_back(static_cast<uint32_t>(last),
                                     static_cast<uint32_t>(pos));
  }
  p.size -= 1;

  // Ripple the free slot to the destination partition (forward or backward).
  if (j > i) {
    for (size_t t = i; t < j; ++t) MoveFreeSlotRight(t, log);
  } else {
    for (size_t t = i; t-- > j;) MoveFreeSlotLeft(t, log);
  }

  Partition& q = parts_[j];
  CASPER_CHECK(q.free_slots() > 0);
  const size_t slot = q.begin + q.size;
  data_[slot] = new_value;
  q.size += 1;
  q.min_val = std::min(q.min_val, new_value);
  q.max_val = std::max(q.max_val, new_value);
  ++stats_.element_writes;
  if (log) log->touched_slot = static_cast<uint32_t>(slot);
  return true;
}

void PartitionedColumnChunk::ValidateInvariants() const {
  CASPER_CHECK(!parts_.empty());
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
    // Every live value routes back to this partition and fits the zonemap.
    for (size_t s = p.begin; s < p.begin + p.size; ++s) {
      CASPER_CHECK_MSG(index_.Route(data_[s]) == t, "routing invariant violated");
      CASPER_CHECK(data_[s] >= p.min_val && data_[s] <= p.max_val);
    }
  }
  CASPER_CHECK(expected_begin == data_.size());
  CASPER_CHECK(live == live_);
}

}  // namespace casper
