#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan_spec.h"
#include "storage/column_chunk.h"
#include "storage/partition_index.h"
#include "storage/partition_scan.h"
#include "util/rng.h"

namespace casper {
namespace {

using Chunk = PartitionedColumnChunk;

/// Count of live values in [lo, hi), through the partition evaluator's
/// count-only walk over the resident chunk (no payload columns).
uint64_t CountRange(const Chunk& c, Value lo, Value hi) {
  const std::vector<std::vector<Payload>> no_payload;
  return ScanPartitions(ScanSpec::Count(lo, hi),
                        PartitionSource::Resident(c, no_payload),
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
  Chunk::Options opts;
  opts.ghost_batch = 4;
  // Partition 0 has no ghosts; partition 2 has plenty.
  Chunk c = Chunk::Build(Iota(12, 0, 10), {4, 4, 4}, {0, 0, 8}, opts);
  c.stats().Clear();
  c.Insert(5);  // needs a slot in partition 0; batch pulls 4 across
  EXPECT_GT(c.partition(0).free_slots(), 0u);  // spare slots left behind
  const uint64_t first_ripples = c.stats().ripple_steps;
  c.stats().Clear();
  c.Insert(6);  // served locally now
  EXPECT_EQ(c.stats().ripple_steps, 0u);
  EXPECT_GT(first_ripples, 0u);
  c.ValidateInvariants();
}

TEST(ColumnChunk, MoveLogTracksInsertSlot) {
  Chunk c = Chunk::Build(Iota(8, 0, 10), {4, 4}, {1, 1});
  MoveLog log;
  c.Insert(15, &log);
  ASSERT_NE(log.touched_slot, MoveLog::kNone);
  EXPECT_EQ(c.raw_data()[log.touched_slot], 15);
}

TEST(ColumnChunk, MoveLogReplaysDeleteSwap) {
  Chunk c = Chunk::Build(Iota(8), {8});
  MoveLog log;
  EXPECT_EQ(c.DeleteOne(0, &log), 1u);  // head victim swaps with tail
  ASSERT_EQ(log.moves.size(), 1u);
  EXPECT_EQ(log.moves[0].first, 7u);
  EXPECT_EQ(log.moves[0].second, 0u);
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
