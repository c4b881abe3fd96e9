#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan_spec.h"
#include "storage/chunk_rows.h"
#include "storage/column_chunk.h"
#include "storage/partition_index.h"
#include "storage/partition_scan.h"
#include "storage/table.h"
#include "util/rng.h"

namespace casper {
namespace {

using Chunk = PartitionedColumnChunk;

/// Count of live values in [lo, hi), through the partition evaluator's
/// count-only walk over the resident chunk (no payload columns).
uint64_t CountRange(const Chunk& c, Value lo, Value hi) {
  return ScanPartitions(ScanSpec::Count(lo, hi), PartitionSource::Resident(c),
                        &c.stats())
      .count;
}

std::vector<Value> Iota(size_t n, Value start = 0, Value step = 1) {
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = start + static_cast<Value>(i) * step;
  return v;
}

TEST(PartitionIndex, RoutesLikeBinarySearch) {
  std::vector<Value> uppers;
  Rng rng(3);
  Value acc = 0;
  for (int i = 0; i < 200; ++i) {
    acc += 1 + static_cast<Value>(rng.Below(50));
    uppers.push_back(acc);
  }
  PartitionIndex idx(uppers, 5);
  for (Value v = -5; v <= acc + 5; ++v) {
    ASSERT_EQ(idx.Route(v), idx.RouteBinarySearch(v)) << "v=" << v;
  }
}

TEST(PartitionIndex, SmallAndLargeFanouts) {
  std::vector<Value> uppers = {10, 20, 30};
  for (size_t fanout : {2u, 3u, 9u, 64u}) {
    PartitionIndex idx(uppers, fanout);
    EXPECT_EQ(idx.Route(5), 0u);
    EXPECT_EQ(idx.Route(10), 0u);
    EXPECT_EQ(idx.Route(11), 1u);
    EXPECT_EQ(idx.Route(30), 2u);
    EXPECT_EQ(idx.Route(99), 2u);  // clamps to last
  }
}

TEST(ColumnChunk, BuildBasics) {
  Chunk c = Chunk::Build(Iota(16), {4, 4, 4, 4});
  EXPECT_EQ(c.size(), 16u);
  EXPECT_EQ(c.num_partitions(), 4u);
  EXPECT_EQ(c.capacity(), 16u);
  c.ValidateInvariants();
  for (Value v = 0; v < 16; ++v) EXPECT_EQ(c.CountEqual(v), 1u) << v;
  EXPECT_EQ(c.CountEqual(99), 0u);
  EXPECT_EQ(c.CountEqual(-1), 0u);
}

TEST(ColumnChunk, BuildWithGhosts) {
  Chunk c = Chunk::Build(Iota(12), {4, 4, 4}, {2, 0, 3});
  EXPECT_EQ(c.size(), 12u);
  EXPECT_EQ(c.capacity(), 17u);
  EXPECT_EQ(c.partition(0).free_slots(), 2u);
  EXPECT_EQ(c.partition(1).free_slots(), 0u);
  EXPECT_EQ(c.partition(2).free_slots(), 3u);
  c.ValidateInvariants();
}

TEST(ColumnChunk, DuplicatesNeverSplit) {
  // 8 copies of 5 would straddle the cut between partitions of width 4.
  std::vector<Value> data = {1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 9, 10};
  Chunk c = Chunk::Build(data, {4, 4, 4});
  c.ValidateInvariants();
  EXPECT_EQ(c.CountEqual(5), 8u);
  // All the 5s must be in one partition.
  const size_t t = c.RoutePartition(5);
  EXPECT_GE(c.partition(t).size, 8u);
}

TEST(ColumnChunk, RangeCountMatchesReference) {
  std::vector<Value> data = Iota(100, 0, 3);  // 0, 3, ..., 297
  Chunk c = Chunk::Build(data, {30, 40, 30});
  for (Value lo = -10; lo < 310; lo += 17) {
    for (Value hi = lo; hi < 320; hi += 23) {
      uint64_t expect = 0;
      for (Value v : data) expect += (v >= lo && v < hi);
      ASSERT_EQ(CountRange(c, lo, hi), expect) << lo << " " << hi;
    }
  }
}

TEST(ColumnChunk, InsertIntoGhostSlotIsLocal) {
  Chunk::Options opts;
  Chunk c = Chunk::Build(Iota(12, 0, 10), {4, 4, 4}, {2, 2, 2}, opts);
  c.stats().Clear();
  c.Insert(15);  // partition 0 (covers up to 30), has ghost slots
  EXPECT_EQ(c.stats().ripple_steps, 0u);  // no boundary crossing needed
  EXPECT_EQ(c.CountEqual(15), 1u);
  c.ValidateInvariants();
}

TEST(ColumnChunk, InsertWithoutGhostsRipples) {
  // Dense chunk with spare space at the very end (paper Fig. 4a).
  Chunk::Options opts;
  opts.dense = true;
  opts.spare_tail = 8;
  Chunk c = Chunk::Build(Iota(16, 0, 10), {4, 4, 4, 4}, {}, opts);
  c.stats().Clear();
  c.Insert(5);  // partition 0: hole must travel from the tail across 3 bounds
  EXPECT_EQ(c.stats().ripple_steps, 3u);
  EXPECT_EQ(c.CountEqual(5), 1u);
  c.ValidateInvariants();
  // Values pushed across boundaries must still be findable.
  for (Value v : Iota(16, 0, 10)) EXPECT_EQ(c.CountEqual(v), 1u) << v;
}

TEST(ColumnChunk, RippleCostMatchesTrailingPartitionCount) {
  // Insert into partition m of k dense partitions moves exactly k-1-m
  // elements (one per crossed boundary) — the cost model's linearity.
  const size_t k = 8;
  for (size_t m = 0; m < k; ++m) {
    Chunk::Options opts;
    opts.dense = true;
    opts.spare_tail = 4;
    Chunk c = Chunk::Build(Iota(64, 0, 10), std::vector<size_t>(k, 8), {}, opts);
    c.stats().Clear();
    c.Insert(static_cast<Value>(m * 80 + 5));  // lands in partition m
    EXPECT_EQ(c.stats().ripple_steps, k - 1 - m) << "m=" << m;
    c.ValidateInvariants();
  }
}

TEST(ColumnChunk, DeleteCreatesGhostSlot) {
  Chunk c = Chunk::Build(Iota(12), {4, 4, 4});
  c.stats().Clear();
  EXPECT_EQ(c.DeleteOne(5), 1u);
  EXPECT_EQ(c.CountEqual(5), 0u);
  EXPECT_EQ(c.size(), 11u);
  EXPECT_EQ(c.partition(1).free_slots(), 1u);  // ghost created in place
  EXPECT_EQ(c.stats().ripple_steps, 0u);
  c.ValidateInvariants();
  // Deleting again finds nothing.
  EXPECT_EQ(c.DeleteOne(5), 0u);
}

TEST(ColumnChunk, DenseDeleteRipplesHoleToEnd) {
  Chunk::Options opts;
  opts.dense = true;
  Chunk c = Chunk::Build(Iota(16), {4, 4, 4, 4}, {}, opts);
  c.stats().Clear();
  EXPECT_EQ(c.DeleteOne(2), 1u);  // partition 0: hole crosses 3 boundaries
  EXPECT_EQ(c.stats().ripple_steps, 3u);
  EXPECT_EQ(c.partition(3).free_slots(), 1u);  // hole parked at the end
  c.ValidateInvariants();
}

TEST(ColumnChunk, UpdateForwardRipplesBetweenPartitions) {
  Chunk c = Chunk::Build(Iota(16, 0, 10), {4, 4, 4, 4});
  c.stats().Clear();
  // 10 lives in partition 0 (covers <=30); 95 belongs to partition 2
  // (covers 80..110 range by upper bound 110).
  EXPECT_TRUE(c.Update(10, 95));
  EXPECT_EQ(c.CountEqual(10), 0u);
  EXPECT_EQ(c.CountEqual(95), 1u);
  EXPECT_EQ(c.stats().ripple_steps, 2u);  // partitions 0->1->2
  EXPECT_EQ(c.size(), 16u);
  c.ValidateInvariants();
}

TEST(ColumnChunk, UpdateBackwardRipples) {
  Chunk c = Chunk::Build(Iota(16, 0, 10), {4, 4, 4, 4});
  c.stats().Clear();
  EXPECT_TRUE(c.Update(150, 5));  // partition 3 -> partition 0
  EXPECT_EQ(c.stats().ripple_steps, 3u);
  EXPECT_EQ(c.CountEqual(5), 1u);
  EXPECT_EQ(c.CountEqual(150), 0u);
  c.ValidateInvariants();
}

TEST(ColumnChunk, UpdateWithinPartitionIsInPlace) {
  Chunk c = Chunk::Build(Iota(16, 0, 10), {4, 4, 4, 4});
  c.stats().Clear();
  EXPECT_TRUE(c.Update(10, 15));  // same partition
  EXPECT_EQ(c.stats().ripple_steps, 0u);
  EXPECT_EQ(c.CountEqual(15), 1u);
  EXPECT_FALSE(c.Update(999, 5));  // absent source
  c.ValidateInvariants();
}

TEST(ColumnChunk, GrowsWhenFull) {
  Chunk c = Chunk::Build(Iota(8), {4, 4});
  c.stats().Clear();
  for (Value v = 100; v < 130; ++v) c.Insert(v);
  EXPECT_EQ(c.size(), 38u);
  EXPECT_GE(c.stats().grows, 1u);
  c.ValidateInvariants();
  for (Value v = 100; v < 130; ++v) EXPECT_EQ(c.CountEqual(v), 1u) << v;
}

TEST(ColumnChunk, GhostBatchPrefetchesSlots) {
  const size_t batch = Chunk::kGhostBatch;
  // Partitions 0 and 1 have no ghosts; partition 2 has two blocks' worth.
  Chunk c = Chunk::Build(Iota(12, 0, 10), {4, 4, 4}, {0, 0, 2 * batch});
  c.stats().Clear();
  c.Insert(5);  // needs a slot in partition 0: one block crosses two bounds
  EXPECT_EQ(c.partition(0).free_slots(), batch - 1);  // spare slots left behind
  EXPECT_EQ(c.partition(1).free_slots(), 0u);
  EXPECT_EQ(c.partition(2).free_slots(), batch);
  EXPECT_EQ(c.stats().ripple_steps, 2 * batch);
  c.stats().Clear();
  c.Insert(6);  // served locally now
  EXPECT_EQ(c.stats().ripple_steps, 0u);
  c.ValidateInvariants();
}

// --- Rows stay whole ----------------------------------------------------------

/// A chunk built with one payload column over distinct keys, and the payload
/// each live key must carry: every copy the chunk makes must move a key and
/// its payload together, so after each operation every live slot's payload
/// is the one its key was given. Keys stay distinct, so an updated row is
/// known by its new key.
class RowTracked {
 public:
  RowTracked(const std::vector<Value>& keys, std::vector<size_t> sizes,
             std::vector<size_t> ghosts, Chunk::Options opts)
      : c(Build(keys, std::move(sizes), std::move(ghosts), opts)) {
    for (const Value k : keys) rows[k] = Tag(k);
    Check();
  }

  void Insert(Value v) {
    ASSERT_EQ(rows.count(v), 0u) << "keys stay distinct: " << v;
    const Payload x = next_payload_++;
    c.Insert(v, {x});
    rows[v] = x;
    Check();
  }
  /// Also checks that the row DeleteOne hands out is its key's payload.
  size_t DeleteOne(Value v) {
    std::vector<Payload> taken;
    const size_t n = c.DeleteOne(v, &taken);
    const auto it = rows.find(v);
    EXPECT_EQ(n, it != rows.end() ? 1u : 0u) << v;
    if (n == 1 && it != rows.end()) {
      EXPECT_EQ(taken, std::vector<Payload>{it->second}) << v;
      rows.erase(it);
    }
    Check();
    return n;
  }
  bool Update(Value from, Value to) {
    EXPECT_EQ(rows.count(to), 0u) << "keys stay distinct: " << to;
    const bool ok = c.Update(from, to);
    const auto it = rows.find(from);
    EXPECT_EQ(ok, it != rows.end()) << from;
    if (it != rows.end()) {
      const Payload x = it->second;
      rows.erase(it);
      rows[to] = x;
    }
    Check();
    return ok;
  }

  /// Every live slot carries its key's payload, each key lives once, and the
  /// chunk is sound (ValidateInvariants also sizes the payload column).
  void Check() const {
    c.ValidateInvariants();
    ASSERT_EQ(c.payload().size(), 1u);
    ASSERT_EQ(c.size(), rows.size());
    std::set<Value> seen;
    for (const auto& p : c.partitions()) {
      for (size_t s = p.begin; s < p.begin + p.size; ++s) {
        const Value k = c.raw_data()[s];
        const auto it = rows.find(k);
        ASSERT_NE(it, rows.end()) << "slot " << s << " holds unknown key " << k;
        ASSERT_EQ(c.payload()[0][s], it->second) << "slot " << s << " key " << k;
        ASSERT_TRUE(seen.insert(k).second) << "key " << k << " lives twice";
      }
    }
  }

  bool Has(Value v) const { return rows.count(v) > 0; }

  Chunk c;
  std::map<Value, Payload> rows;

 private:
  /// The payload a built row with key k starts with.
  static Payload Tag(Value k) {
    return static_cast<Payload>((static_cast<uint64_t>(k) * 2654435761u) >> 7);
  }
  static Chunk Build(const std::vector<Value>& keys, std::vector<size_t> sizes,
                     std::vector<size_t> ghosts, Chunk::Options opts) {
    std::vector<std::vector<Payload>> col(1);
    for (const Value k : keys) col[0].push_back(Tag(k));
    return Chunk::Build(keys, std::move(sizes), std::move(ghosts), opts, col);
  }

  Payload next_payload_ = 1u << 31;  // above every Tag, so a mix-up shows
};

TEST(ColumnChunk, BuildPlacesRowsFromFirstRow) {
  // Rows 3..14 of a 16-row input; the cut inside the run of 5s slides.
  std::vector<Value> keys = {1, 2, 5, 5, 5, 5, 5, 9, 10, 11, 12, 13};
  std::vector<std::vector<Payload>> cols(2, std::vector<Payload>(16));
  for (size_t r = 0; r < 16; ++r) {
    cols[0][r] = static_cast<Payload>(100 + r);
    cols[1][r] = static_cast<Payload>(200 + r);
  }
  Chunk c = Chunk::Build(keys, {4, 4, 4}, {1, 0, 2}, Chunk::Options(), cols, 3);
  c.ValidateInvariants();
  ASSERT_EQ(c.payload().size(), 2u);
  size_t r = 3;
  for (const auto& p : c.partitions()) {
    for (size_t s = p.begin; s < p.begin + p.size; ++s, ++r) {
      EXPECT_EQ(c.raw_data()[s], keys[r - 3]);
      EXPECT_EQ(c.payload()[0][s], 100 + r);
      EXPECT_EQ(c.payload()[1][s], 200 + r);
    }
  }
  EXPECT_EQ(r, 15u);
}

TEST(ColumnChunk, ReleaseStorageDropsEveryColumn) {
  std::vector<std::vector<Payload>> cols(2, std::vector<Payload>(8, 7));
  Chunk c = Chunk::Build(Iota(8), {4, 4}, {2, 2}, Chunk::Options(), cols);
  EXPECT_EQ(c.payload()[1].size(), 12u);
  c.ReleaseStorage();
  EXPECT_TRUE(c.raw_data().empty());
  ASSERT_EQ(c.payload().size(), 2u);
  for (const auto& col : c.payload()) EXPECT_TRUE(col.empty());
  EXPECT_EQ(c.capacity(), 12u);  // the geometry stays
  c.ValidateInvariants();
}

TEST(ColumnChunk, ReleaseRestoreKeepsTheSlotImage) {
  for (const bool dense : {false, true}) {
    Chunk::Options opts;
    opts.dense = dense;
    opts.spare_tail = dense ? 4 : 0;
    RowTracked t(Iota(64, 0, 10), std::vector<size_t>(8, 8),
                 std::vector<size_t>(8, dense ? 0 : 1), opts);
    // Front-heavy inserts ripple and grow; deletes and updates leave stale
    // rows behind in free slots.
    for (Value v = 1; v < 200; v += 2) t.Insert(v);
    for (Value v = 300; v < 500; v += 20) ASSERT_EQ(t.DeleteOne(v), 1u);
    ASSERT_TRUE(t.Update(610, 2));
    ASSERT_TRUE(t.Update(5, 605));
    ASSERT_GE(t.c.stats().grows, 1u);
    ASSERT_GT(t.c.stats().ripple_steps, 0u);
    const std::vector<Value> keys = t.c.raw_data();
    const std::vector<std::vector<Payload>> payload = t.c.payload();
    size_t stale = 0;
    for (const auto& p : t.c.partitions()) {
      for (size_t s = p.begin + p.size; s < p.begin + p.cap; ++s) stale += keys[s] != 0;
    }
    ASSERT_GT(stale, 0u) << "the free slots must hold something to clear";

    const ChunkRows rows = t.c.Rows();
    ASSERT_EQ(rows.keys.size(), t.c.size());
    t.c.ReleaseStorage();
    t.c.RestoreStorage(rows);

    // Live slots come back as they were, free slots as zeros.
    ASSERT_EQ(t.c.raw_data().size(), keys.size());
    ASSERT_EQ(t.c.payload().size(), payload.size());
    for (const auto& p : t.c.partitions()) {
      for (size_t s = p.begin; s < p.begin + p.cap; ++s) {
        const bool live = s < p.begin + p.size;
        EXPECT_EQ(t.c.raw_data()[s], live ? keys[s] : 0)
            << "dense " << dense << " slot " << s;
        for (size_t col = 0; col < payload.size(); ++col) {
          EXPECT_EQ(t.c.payload()[col][s], live ? payload[col][s] : 0)
              << "dense " << dense << " column " << col << " slot " << s;
        }
      }
    }
    t.Check();
    for (Value v = 201; v < 260; v += 2) t.Insert(v);  // and writes go on
  }
}

TEST(RippleRuns, LeftRunsCarryTheBlock) {
  const size_t batch = Chunk::kGhostBatch;
  // Partitions 0 and 1 are full; partition 2 donates toward the front.
  RowTracked t(Iota(48, 0, 10), {16, 16, 16}, {0, 0, 32}, Chunk::Options());
  t.c.stats().Clear();
  t.Insert(5);
  // One run of `batch` copies per boundary, each counted per slot.
  EXPECT_EQ(t.c.stats().ripple_steps, 2 * batch);
  EXPECT_EQ(t.c.stats().element_reads, 2 * batch);
  EXPECT_EQ(t.c.stats().element_writes, 2 * batch + 1);
}

TEST(RippleRuns, RightRunsCarryTheBlock) {
  const size_t batch = Chunk::kGhostBatch;
  // Partition 0 donates toward the back.
  RowTracked t(Iota(48, 0, 10), {16, 16, 16}, {32, 0, 0}, Chunk::Options());
  t.c.stats().Clear();
  t.Insert(475);
  EXPECT_EQ(t.c.stats().ripple_steps, 2 * batch);
  EXPECT_EQ(t.c.stats().element_reads, 2 * batch);
  EXPECT_EQ(t.c.stats().element_writes, 2 * batch + 1);
}

TEST(RippleRuns, RunsLongerThanTheSourceOverlap) {
  const size_t batch = Chunk::kGhostBatch;
  // Partitions of 2 and 3 rows: a block of 8 slots passes through them, so
  // each run re-reads slots it has already written (a run is not a memmove,
  // and its copy direction matters).
  RowTracked left(Iota(9, 0, 10), {4, 2, 3}, {0, 0, 16}, Chunk::Options());
  EXPECT_EQ(left.c.partition(1).size, 2u);
  EXPECT_EQ(left.c.partition(2).size, 3u);
  left.c.stats().Clear();
  left.Insert(5);
  EXPECT_EQ(left.c.stats().ripple_steps, 2 * batch);
  EXPECT_EQ(left.c.stats().element_reads, 2 * batch);
  EXPECT_EQ(left.c.stats().element_writes, 2 * batch + 1);

  RowTracked right(Iota(9, 0, 10), {3, 2, 4}, {16, 0, 0}, Chunk::Options());
  EXPECT_EQ(right.c.partition(1).size, 2u);
  EXPECT_EQ(right.c.partition(2).size, 4u);
  right.c.stats().Clear();
  right.Insert(85);
  EXPECT_EQ(right.c.stats().ripple_steps, 2 * batch);
  EXPECT_EQ(right.c.stats().element_reads, 2 * batch);
  EXPECT_EQ(right.c.stats().element_writes, 2 * batch + 1);

  for (const Value v : {1, 2, 3, 4, 6, 7}) {
    left.Insert(v);
    right.Insert(80 + v);
  }
}

TEST(RippleRuns, EmptySourcePartitionCopiesNothing) {
  const size_t batch = Chunk::kGhostBatch;
  RowTracked t(Iota(12, 0, 10), {4, 4, 4}, {}, Chunk::Options());
  for (Value v = 40; v < 80; v += 10) ASSERT_EQ(t.DeleteOne(v), 1u);
  // Partition 1 is now empty with four free slots: the slots it donates to
  // partition 0 carry no rows, so nothing is copied.
  t.c.stats().Clear();
  t.Insert(5);
  EXPECT_EQ(t.c.stats().ripple_steps, std::min<size_t>(batch, 4));
  EXPECT_EQ(t.c.stats().element_reads, 0u);
  EXPECT_EQ(t.c.stats().element_writes, 1u);
}

TEST(RippleRuns, GrowThenRipple) {
  RowTracked t(Iota(24, 0, 10), {8, 8, 8}, {}, Chunk::Options());
  t.c.stats().Clear();
  t.Insert(5);  // full chunk, nothing inserted since the build: the grow
                // gives all its slots to the front partition
  EXPECT_EQ(t.c.stats().grows, 1u);
  EXPECT_EQ(t.c.payload()[0].size(), t.c.raw_data().size());
  for (Value v = 1; v < 40; ++v) t.Insert(v * 6 + 1);
}

TEST(RippleRuns, DenseDeleteAndCrossPartitionUpdates) {
  Chunk::Options dense;
  dense.dense = true;
  dense.spare_tail = 4;
  RowTracked d(Iota(32, 0, 10), {8, 8, 8, 8}, {}, dense);
  d.c.stats().Clear();
  ASSERT_EQ(d.DeleteOne(20), 1u);  // swap, then a hole to the column end
  EXPECT_EQ(d.c.stats().ripple_steps, 3u);
  EXPECT_EQ(d.c.stats().element_reads, 8u + 1 + 3);  // scan, swap, 3 runs
  EXPECT_EQ(d.c.stats().element_writes, 1u + 3);
  ASSERT_EQ(d.DeleteOne(310), 1u);  // the last partition's tail row
  d.Insert(21);

  RowTracked g(Iota(32, 0, 10), {8, 8, 8, 8}, {2, 2, 2, 2}, Chunk::Options());
  const auto steps = [&g] { return g.c.stats().ripple_steps.load(); };
  g.c.stats().Clear();
  EXPECT_TRUE(g.Update(10, 305));  // forward, across three boundaries
  EXPECT_EQ(steps(), 3u);
  EXPECT_TRUE(g.Update(300, 15));  // backward, across three boundaries
  EXPECT_EQ(steps(), 6u);
  EXPECT_TRUE(g.Update(230, 105));  // backward, one boundary
  EXPECT_EQ(steps(), 7u);
  EXPECT_TRUE(g.Update(100, 101));  // in place
  EXPECT_EQ(steps(), 7u);
  EXPECT_FALSE(g.Update(999, 5));  // absent source
}

TEST(RippleRuns, RandomStreamKeepsRowsWhole) {
  const Value domain = 6000;
  for (const bool dense : {false, true}) {
    Rng rng(85);
    std::set<Value> init;
    while (init.size() < 192) init.insert(static_cast<Value>(rng.Below(domain)));
    Chunk::Options opts;
    opts.dense = dense;
    opts.spare_tail = dense ? 8 : 0;
    RowTracked t(std::vector<Value>(init.begin(), init.end()),
                 std::vector<size_t>(24, 8), std::vector<size_t>(24, dense ? 0 : 1),
                 opts);
    // A live key near a random point, or kMaxValue if none lies above it.
    const auto live_key = [&] {
      const auto it = t.rows.lower_bound(static_cast<Value>(rng.Below(domain)));
      return it == t.rows.end() ? kMaxValue : it->first;
    };
    for (int op = 0; op < 1500; ++op) {
      // Skewed to the front, so ghosts run out and blocks ripple far.
      const Value v = static_cast<Value>(rng.Below(4) == 0 ? rng.Below(domain)
                                                           : rng.Below(domain / 10));
      switch (rng.Below(4)) {
        case 0:
        case 1:
          if (!t.Has(v)) t.Insert(v);
          break;
        case 2:
          t.DeleteOne(static_cast<Value>(rng.Below(domain)));
          break;
        default:
          if (!t.Has(v)) t.Update(live_key(), v);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Grows spread slack by demand ----------------------------------------------

/// Slots one grow adds to a chunk of `capacity` slots.
size_t Growth(size_t capacity) { return std::max<size_t>(64, capacity / 64); }

std::vector<size_t> Caps(const Chunk& c) {
  std::vector<size_t> caps;
  for (const auto& p : c.partitions()) caps.push_back(p.cap);
  return caps;
}

TEST(ColumnChunk, GrowSpreadsSlotsByInserts) {
  // No ghosts, so the first insert grows a chunk that has taken no inserts.
  RowTracked t(Iota(256, 0, 10), std::vector<size_t>(8, 32), {}, Chunk::Options());
  const size_t k = t.c.num_partitions();
  Rng rng(36);
  const Value domain = 2560;
  // Rows placed in each partition since the last grow: every insert, and
  // every update that moves its row to another partition.
  std::vector<size_t> placed(k, 0);
  size_t grows = 0;
  size_t grows_without_inserts = 0;
  for (int op = 0; op < 2000 && grows < 12; ++op) {
    // Skewed: 3 in 4 keys land in the first three partitions.
    const Value v = static_cast<Value>(rng.Below(4) == 0 ? rng.Below(domain)
                                                         : rng.Below(domain * 3 / 8));
    const uint64_t kind = rng.Below(10);
    // A live key near a random point: an update's source, a delete's key.
    const auto live = t.rows.lower_bound(static_cast<Value>(rng.Below(domain)));
    if (t.Has(v) || live == t.rows.end()) continue;
    const std::vector<size_t> caps = Caps(t.c);
    const size_t capacity = t.c.capacity();
    const uint64_t grows_before = t.c.stats().grows;
    const size_t target = t.c.RoutePartition(v);
    bool places = false;
    if (kind < 6) {
      t.Insert(v);
      places = true;
    } else if (kind < 9) {
      places = t.c.RoutePartition(live->first) != target;
      t.Update(live->first, v);
    } else {
      t.DeleteOne(live->first);
    }
    if (::testing::Test::HasFatalFailure()) return;
    if (t.c.stats().grows != grows_before) {
      ASSERT_EQ(t.c.stats().grows, grows_before + 1);
      ASSERT_LT(kind, 6u) << "only an insert finds the chunk full";
      ++grows;
      // Eq. 18 over the rows placed since the last grow: partition p gets
      // floor(growth x placed[p] / total), the insert's partition the rest,
      // or everything when nothing was placed.
      const size_t growth = Growth(capacity);
      const size_t total = std::accumulate(placed.begin(), placed.end(), size_t{0});
      std::vector<size_t> share(k, 0);
      for (size_t p = 0; total > 0 && p < k; ++p) share[p] = growth * placed[p] / total;
      share[target] += growth - std::accumulate(share.begin(), share.end(), size_t{0});
      if (total == 0) ++grows_without_inserts;
      // The stream is chosen so every grow covers its own insert; otherwise
      // a ripple after the grow would also move caps.
      ASSERT_GT(share[target], 0u);
      const std::vector<size_t> after = Caps(t.c);
      for (size_t p = 0; p < k; ++p) {
        EXPECT_EQ(after[p] - caps[p], share[p]) << "grow " << grows << " partition " << p;
      }
      EXPECT_EQ(t.c.capacity(), capacity + growth);
      placed.assign(k, 0);
    }
    if (places) ++placed[target];
  }
  EXPECT_GE(grows, 5u);
  EXPECT_EQ(grows_without_inserts, 1u);  // the first grow after the build
}

TEST(ColumnChunk, DenseChunkGrowsAtTheTail) {
  Chunk::Options dense;
  dense.dense = true;
  RowTracked t(Iota(256, 0, 10), std::vector<size_t>(8, 32), {}, dense);
  const size_t last = t.c.num_partitions() - 1;
  size_t grows = 0;
  for (Value v = 1; grows < 3; v += 10) {
    const size_t capacity = t.c.capacity();
    const uint64_t grows_before = t.c.stats().grows;
    t.Insert(v);  // the front partitions: every slot comes from the tail
    if (::testing::Test::HasFatalFailure()) return;
    if (t.c.stats().grows == grows_before) continue;
    ++grows;
    EXPECT_EQ(t.c.capacity(), capacity + Growth(capacity));
    // Only the slot this insert took crossed over from the tail.
    for (size_t p = 0; p < last; ++p) EXPECT_EQ(t.c.partition(p).free_slots(), 0u);
    EXPECT_EQ(t.c.partition(last).free_slots(), Growth(capacity) - 1);
  }
}

// --- Golden slot image -------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// What a seeded, ripple-heavy stream leaves behind: the slot image and each
/// chunk's data-movement counters.
struct RippleStreamResult {
  uint64_t image_hash = 0;
  std::vector<ChunkStatsSnapshot> stats;  ///< per chunk
};

/// A seeded, ripple-heavy stream over a 3-column table with the chunk's
/// ghost batch of 8: skewed inserts that exhaust the ghosts and grow the
/// chunks, deletes, cross-partition and cross-chunk key updates, and batched
/// write runs. The image hash covers the row count, the geometry, every
/// chunk's full key buffer (free slots included) and every live payload row
/// in partition order.
RippleStreamResult RunRippleStream() {
  const size_t rows = 8192;
  const size_t cols = 3;
  Rng rng(2028);
  std::vector<Value> keys(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = static_cast<Value>(i * 8 + rng.Below(8));
  }
  std::vector<std::vector<Payload>> payload(cols, std::vector<Payload>(rows));
  for (auto& col : payload) {
    for (Payload& x : col) x = static_cast<Payload>(rng.Below(1u << 30));
  }
  std::vector<PartitionedTable::ChunkLayoutSpec> specs(2);
  for (auto& spec : specs) {
    // Narrow partitions between wide ones: a block of 8 ghost slots passes
    // through partitions holding fewer rows than it, so runs overlap.
    for (size_t p = 0; p < 32; ++p) spec.partition_sizes.push_back(p % 2 ? 250 : 6);
    spec.ghosts.assign(32, 2);
  }
  PartitionedTable t =
      PartitionedTable::Build(keys, std::move(payload), std::move(specs));

  const Value domain = static_cast<Value>(rows * 8);
  auto skewed_key = [&] {
    // 3 in 4 keys land in the first tenth of each chunk's range.
    const Value chunk_base = rng.Below(2) == 0 ? 0 : domain / 2;
    return rng.Below(4) == 0 ? static_cast<Value>(rng.Below(rows * 8))
                             : chunk_base + static_cast<Value>(rng.Below(rows * 8 / 20));
  };
  std::vector<Payload> row(cols);
  for (int op = 0; op < 6000; ++op) {
    const uint64_t kind = rng.Below(10);
    if (kind < 6) {
      for (Payload& x : row) x = static_cast<Payload>(rng.Below(1u << 30));
      t.Insert(skewed_key(), row);
    } else if (kind == 6) {
      t.Delete(keys[rng.Below(rows)]);
    } else if (kind < 9) {
      // Sequenced: the order in which call arguments are evaluated is
      // unspecified, and the two draws must come in one order everywhere.
      const Value from = keys[rng.Below(rows)];
      t.UpdateKey(from, skewed_key());
    } else {
      std::vector<BatchWrite> run(8);
      for (BatchWrite& w : run) {
        w.is_insert = rng.Below(4) != 0;
        w.key = w.is_insert ? skewed_key() : keys[rng.Below(rows)];
        if (w.is_insert) {
          w.payload.resize(cols);
          for (Payload& x : w.payload) x = static_cast<Payload>(rng.Below(1u << 30));
        }
      }
      t.ApplyWriteRun(run);
    }
  }
  t.ValidateInvariants();

  RippleStreamResult out;
  Fnv1a fnv;
  fnv.Add(t.num_rows());
  fnv.Add(t.LayoutFingerprint());
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const std::vector<Value>& data = t.key_chunk(c).raw_data();
    fnv.Add(data.size());
    for (const Value v : data) fnv.Add(static_cast<uint64_t>(v));
    const ChunkRows image = t.SnapshotChunkRows(c);
    for (const auto& col : image.payload) {
      for (const Payload x : col) fnv.Add(x);
    }
    out.stats.push_back(t.CoherentStatsSnapshot(c));
  }
  out.image_hash = fnv.h;
  return out;
}

TEST(RippleRuns, GoldenSlotImageAfterRippleHeavyStream) {
  const RippleStreamResult r = RunRippleStream();
  // Every key slot and payload row stays where the ripples and the
  // demand-spread grows put it.
  EXPECT_EQ(r.image_hash, 0xa171f2f88df89c76ull);
  ASSERT_EQ(r.stats.size(), 2u);
  // The data movement, chunk by chunk: a cross-chunk move (258 and 244 of
  // them) reads its source partition once, and a grow reads and writes
  // every live row it re-lays.
  EXPECT_EQ(r.stats[0].element_reads, 703224u);
  EXPECT_EQ(r.stats[1].element_reads, 722312u);
  EXPECT_EQ(r.stats[0].ripple_steps, 17669u);
  EXPECT_EQ(r.stats[1].ripple_steps, 18204u);
  EXPECT_EQ(r.stats[0].element_writes, 207708u);
  EXPECT_EQ(r.stats[1].element_writes, 201292u);
  EXPECT_EQ(r.stats[0].grows, 34u);
  EXPECT_EQ(r.stats[1].grows, 33u);
}

// Property test: a random operation stream against a multiset oracle.
class ChunkFuzz : public ::testing::TestWithParam<std::tuple<bool, uint64_t>> {};

TEST_P(ChunkFuzz, MatchesMultisetOracle) {
  const bool dense = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);

  std::vector<Value> init;
  std::multiset<Value> oracle;
  const size_t n = 256;
  for (size_t i = 0; i < n; ++i) {
    const Value v = static_cast<Value>(rng.Below(1000));
    init.push_back(v);
    oracle.insert(v);
  }
  std::sort(init.begin(), init.end());
  Chunk::Options opts;
  opts.dense = dense;
  opts.spare_tail = dense ? 16 : 0;
  std::vector<size_t> sizes(8, n / 8);
  std::vector<size_t> ghosts(8, dense ? 0 : 4);
  Chunk c = Chunk::Build(init, sizes, ghosts, opts);

  for (int op = 0; op < 2000; ++op) {
    const Value v = static_cast<Value>(rng.Below(1000));
    switch (rng.Below(5)) {
      case 0: {  // insert
        c.Insert(v);
        oracle.insert(v);
        break;
      }
      case 1: {  // delete
        const size_t deleted = c.DeleteOne(v);
        if (oracle.count(v) > 0) {
          EXPECT_EQ(deleted, 1u);
          oracle.erase(oracle.find(v));
        } else {
          EXPECT_EQ(deleted, 0u);
        }
        break;
      }
      case 2: {  // update
        const Value w = static_cast<Value>(rng.Below(1000));
        const bool updated = c.Update(v, w);
        if (oracle.count(v) > 0) {
          EXPECT_TRUE(updated);
          oracle.erase(oracle.find(v));
          oracle.insert(w);
        } else {
          EXPECT_FALSE(updated);
        }
        break;
      }
      case 3: {  // point query
        EXPECT_EQ(c.CountEqual(v), oracle.count(v));
        break;
      }
      default: {  // range count
        const Value w = v + static_cast<Value>(rng.Below(200));
        uint64_t expect = 0;
        for (auto it = oracle.lower_bound(v); it != oracle.end() && *it < w; ++it) {
          ++expect;
        }
        EXPECT_EQ(CountRange(c, v, w), expect);
      }
    }
    if (op % 250 == 0) c.ValidateInvariants();
  }
  c.ValidateInvariants();
  EXPECT_EQ(c.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndGhost, ChunkFuzz,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 3, 4, 5, 6)));

}  // namespace
}  // namespace casper
