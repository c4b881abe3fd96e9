#include "storage/column_chunk.h"

#include <algorithm>
#include <numeric>

#include "exec/scan_kernels.h"
#include "storage/chunk_rows.h"
#include "util/status.h"

namespace casper {

using Partition = PartitionedColumnChunk::Partition;

// The one way rows enter slots: a column laid out for `parts`, partition t's
// rows read from src + from[t] into [begin, begin + size), then zeros up to
// its cap. Every slot is written once.
template <typename T>
static std::vector<T> LaidOut(const T* src, const std::vector<size_t>& from,
                              const std::vector<Partition>& parts) {
  std::vector<T> out;
  out.reserve(parts.back().begin + parts.back().cap);
  for (size_t t = 0; t < parts.size(); ++t) {
    out.insert(out.end(), src + from[t], src + from[t] + parts[t].size);
    out.resize(out.size() + parts[t].free_slots(), T{0});
  }
  return out;
}

// LaidOut's inverse: a column's live rows, partition by partition.
template <typename T>
static std::vector<T> Gathered(const std::vector<T>& col,
                               const std::vector<Partition>& parts, size_t live) {
  std::vector<T> out;
  out.reserve(live);
  for (const Partition& p : parts) {
    const auto first = col.begin() + static_cast<ptrdiff_t>(p.begin);
    out.insert(out.end(), first, first + static_cast<ptrdiff_t>(p.size));
  }
  return out;
}

// Where each partition's rows start when the rows are stored in partition
// order with no free slots between them (sorted input, ChunkRows).
static std::vector<size_t> RowOffsets(const std::vector<Partition>& parts) {
  std::vector<size_t> from(parts.size());
  size_t at = 0;
  for (size_t t = 0; t < parts.size(); ++t) {
    from[t] = at;
    at += parts[t].size;
  }
  return from;
}

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
  size_t begin = 0;
  for (auto& p : parts) {
    p.begin = begin;
    begin += p.cap;
  }
  const std::vector<size_t> from = RowOffsets(parts);
  chunk.data_ = LaidOut(sorted_values.data(), from, parts);
  for (const std::vector<Payload>& col : payload) {
    chunk.payload_.push_back(LaidOut(col.data() + first_row, from, parts));
  }
  chunk.row_scratch_.resize(payload.size());
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

// The ripple primitives are inline. CarrySlots applies one MoveRows per
// partition boundary, and the one-slot ripples (dense layout, updates) pay
// for an out-of-line call, about 15% of BM_InsertWithGhosts/0. CarrySlots
// is forced inline: with three callers GCC keeps it out of line, and the
// call with a run length it cannot see costs about 5% of the same row.
inline void PartitionedColumnChunk::MoveRows(const MoveRun& run) {
  CopyRun(data_.data(), run);
  for (std::vector<Payload>& col : payload_) CopyRun(col.data(), run);
}

[[gnu::always_inline]] inline void PartitionedColumnChunk::CarrySlots(
    size_t from, size_t to, size_t k) {
  size_t moves = 0;
  if (from > to) {
    // Toward the front: at boundary t|t+1, partition t+1's first k rows go
    // to its first free slots and its region starts k slots later.
    for (size_t t = from; t-- > to;) {
      Partition& b = parts_[t + 1];
      CASPER_CHECK(b.free_slots() >= k);
      if (b.size > 0) {
        MoveRows({static_cast<uint32_t>(b.begin),
                  static_cast<uint32_t>(b.begin + b.size), static_cast<uint32_t>(k)});
        moves += k;
      }
      b.begin += k;
      b.cap -= k;
      parts_[t].cap += k;
    }
  } else {
    // Toward the back: partition t's last k free slots pass to t+1, whose
    // last k rows go into them and whose region starts k slots earlier.
    for (size_t t = from; t < to; ++t) {
      Partition& a = parts_[t];
      Partition& b = parts_[t + 1];
      CASPER_CHECK(a.free_slots() >= k);
      if (b.size > 0) {
        MoveRows({static_cast<uint32_t>(b.begin + b.size - k),
                  static_cast<uint32_t>(b.begin - k), static_cast<uint32_t>(k)});
        moves += k;
      }
      a.cap -= k;
      b.begin -= k;
      b.cap += k;
    }
  }
  if (moves > 0) {
    stats_.element_reads += moves;
    stats_.element_writes += moves;
  }
  if (from != to) stats_.ripple_steps += k * (from > to ? from - to : to - from);
}

size_t PartitionedColumnChunk::FindDonor(size_t m) const {
  const size_t k = parts_.size();
  for (size_t d = 1; d < k; ++d) {
    if (m + d < k && parts_[m + d].free_slots() > 0) return m + d;
    if (d <= m && parts_[m - d].free_slots() > 0) return m - d;
  }
  return static_cast<size_t>(-1);
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

  // Each partition's rows are read from its old begin.
  std::vector<size_t> from(parts_.size());
  size_t begin = 0;
  for (size_t t = 0; t < parts_.size(); ++t) {
    from[t] = parts_[t].begin;
    parts_[t].begin = begin;
    parts_[t].cap += added[t];
    begin += parts_[t].cap;
  }
  data_ = LaidOut(data_.data(), from, parts_);
  for (std::vector<Payload>& col : payload_) col = LaidOut(col.data(), from, parts_);
  inserts_.assign(parts_.size(), 0);
  stats_.element_reads += live_;
  stats_.element_writes += live_;
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
  const size_t batch = opts_.dense ? 1 : kGhostBatch;
  CarrySlots(donor, m, std::min(batch, parts_[donor].free_slots()));
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
    CarrySlots(m, parts_.size() - 1, 1);
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
  CarrySlots(i, j, 1);
  PlaceRow(j, new_value, row_scratch_.data());
  return true;
}

// --- Tiered storage -------------------------------------------------------------

ChunkRows PartitionedColumnChunk::Rows() const {
  CASPER_CHECK_MSG(data_.size() == capacity(), "rows of a released chunk");
  ChunkRows rows;
  rows.parts = parts_;
  rows.keys = Gathered(data_, parts_, live_);
  for (const std::vector<Payload>& col : payload_) {
    rows.payload.push_back(Gathered(col, parts_, live_));
  }
  return rows;
}

void PartitionedColumnChunk::RestoreStorage(const ChunkRows& rows) {
  CASPER_CHECK(rows.keys.size() == live_ && rows.payload.size() == payload_.size());
  const std::vector<size_t> from = RowOffsets(parts_);
  data_ = LaidOut(rows.keys.data(), from, parts_);
  for (size_t col = 0; col < payload_.size(); ++col) {
    CASPER_CHECK(rows.payload[col].size() == live_);
    payload_[col] = LaidOut(rows.payload[col].data(), from, parts_);
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
