#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan_spec.h"
#include "storage/table.h"
#include "util/rng.h"

namespace casper {
namespace {

using Table = PartitionedTable;

/// Whole-table evaluation of `spec`: the merge of every chunk's slice.
ScanPartial ScanTable(const Table& t, const ScanSpec& spec) {
  ScanPartial out;
  for (size_t c = 0; c < t.num_chunks(); ++c) out.Merge(t.ScanSpecInChunk(c, spec));
  return out;
}

uint64_t CountRange(const Table& t, Value lo, Value hi) {
  return ScanTable(t, ScanSpec::Count(lo, hi)).count;
}

Table MakeTable(size_t rows, size_t payload_cols, size_t chunk_values,
                size_t parts_per_chunk, size_t ghosts_per_part, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> keys;
  keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys.push_back(static_cast<Value>(rng.Below(rows * 4)));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::vector<Payload>> payload(payload_cols);
  for (size_t c = 0; c < payload_cols; ++c) {
    payload[c].resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      payload[c][i] =
          static_cast<Payload>((static_cast<uint64_t>(keys[i]) * (c + 3)) % 100000);
    }
  }
  // Duplicate-safe chunk cuts.
  std::vector<size_t> counts;
  size_t begin = 0;
  while (begin < rows) {
    size_t end = std::min(rows, begin + chunk_values);
    while (end > begin + 1 && end < rows && keys[end - 1] == keys[end]) ++end;
    counts.push_back(end - begin);
    begin = end;
  }
  std::vector<Table::ChunkLayoutSpec> specs(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    const size_t k = std::min(parts_per_chunk, counts[i]);
    specs[i].partition_sizes.assign(k, counts[i] / k);
    specs[i].partition_sizes.back() += counts[i] % k;
    specs[i].ghosts.assign(k, ghosts_per_part);
  }
  return Table::Build(std::move(keys), std::move(payload), std::move(specs));
}

TEST(Table, BuildSplitsIntoChunks) {
  Table t = MakeTable(10000, 2, 2048, 8, 4, 1);
  EXPECT_EQ(t.num_rows(), 10000u);
  EXPECT_GE(t.num_chunks(), 4u);
  EXPECT_EQ(t.num_payload_columns(), 2u);
  t.ValidateInvariants();
}

TEST(Table, PointLookupReturnsPayload) {
  Table t = MakeTable(5000, 3, 1024, 8, 2, 2);
  // Find an existing key by probing the first chunk's data.
  const Value key = t.key_chunk(0).raw_data()[t.key_chunk(0).partition(0).begin];
  std::vector<Payload> row;
  ASSERT_GE(t.PointLookup(key, &row), 1u);
  ASSERT_EQ(row.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(row[c], static_cast<Payload>(
                          (static_cast<uint64_t>(key) * (c + 3)) % 100000));
  }
}

TEST(Table, CrossChunkRangeAggregates) {
  Table t = MakeTable(8192, 1, 1024, 4, 0, 3);
  // Whole-domain count equals row count regardless of chunk boundaries.
  EXPECT_EQ(CountRange(t, kMinValue + 1, kMaxValue), 8192u);
  // Split the domain at arbitrary points; pieces must sum to the total.
  const Value mid1 = 8192, mid2 = 20000;
  const uint64_t total = CountRange(t, 0, static_cast<Value>(8192 * 4 + 1));
  const uint64_t a = CountRange(t, 0, mid1);
  const uint64_t b = CountRange(t, mid1, mid2);
  const uint64_t c = CountRange(t, mid2, static_cast<Value>(8192 * 4 + 1));
  EXPECT_EQ(a + b + c, total);
}

TEST(Table, SumsAgreeWithScan) {
  Table t = MakeTable(4096, 2, 1024, 8, 2, 4);
  const Value lo = 1000, hi = 9000;
  int64_t expect_pay = 0;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const ChunkRows rows = t.SnapshotChunkRows(c);
    for (size_t r = 0; r < rows.keys.size(); ++r) {
      if (rows.keys[r] >= lo && rows.keys[r] < hi) {
        expect_pay += rows.payload[0][r] + rows.payload[1][r];
      }
    }
  }
  EXPECT_EQ(ScanTable(t, ScanSpec::Sum(lo, hi, {0, 1})).SumResult(), expect_pay);
}

TEST(Table, InsertRoutesToCorrectChunk) {
  Table t = MakeTable(4096, 1, 512, 4, 2, 5);
  const size_t chunks = t.num_chunks();
  ASSERT_GE(chunks, 4u);
  // Insert at the very bottom and very top of the domain.
  t.Insert(-100, {7});
  t.Insert(kMaxValue / 2, {9});
  EXPECT_EQ(t.num_rows(), 4098u);
  std::vector<Payload> row;
  EXPECT_EQ(t.PointLookup(-100, &row), 1u);
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(t.PointLookup(kMaxValue / 2, &row), 1u);
  EXPECT_EQ(row[0], 9u);
  EXPECT_EQ(t.num_chunks(), chunks) << "chunk set is static";
  t.ValidateInvariants();
}

TEST(Table, CrossChunkUpdateCarriesPayload) {
  Table t = MakeTable(4096, 2, 512, 4, 2, 6);
  ASSERT_GE(t.num_chunks(), 4u);
  // Take a key from the first chunk and move it beyond the last chunk's
  // upper bound.
  const Value src = t.key_chunk(0).raw_data()[t.key_chunk(0).partition(0).begin];
  std::vector<Payload> before;
  ASSERT_GE(t.PointLookup(src, &before), 1u);
  const Value dst = static_cast<Value>(4096 * 4 + 777);
  ASSERT_TRUE(t.UpdateKey(src, dst));
  std::vector<Payload> after;
  ASSERT_GE(t.PointLookup(dst, &after), 1u);
  EXPECT_EQ(before, after);
  EXPECT_EQ(t.num_rows(), 4096u);
  t.ValidateInvariants();
}

/// Two chunks of `per_chunk` rows with even keys: chunk 0 holds
/// [0, 2 * per_chunk), chunk 1 the next 2 * per_chunk. Row key k carries
/// payload PayloadOf(k); `parts` equal partitions with `ghosts` free slots each.
Payload PayloadOf(Value k) { return static_cast<Payload>(k * 3 + 7); }

Table MakeTwoChunkTable(size_t per_chunk, size_t parts, size_t ghosts) {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload(1);
  for (size_t i = 0; i < 2 * per_chunk; ++i) {
    keys.push_back(static_cast<Value>(2 * i));
    payload[0].push_back(PayloadOf(keys.back()));
  }
  std::vector<Table::ChunkLayoutSpec> specs(2);
  for (auto& spec : specs) {
    spec.partition_sizes.assign(parts, per_chunk / parts);
    spec.ghosts.assign(parts, ghosts);
  }
  return Table::Build(std::move(keys), std::move(payload), std::move(specs));
}

TEST(Table, CrossChunkMoveReadsItsSourceOnce) {
  // Chunk 0 holds keys 0..30 in two partitions of 8; key 10 sits in
  // partition 0 (keys 0..14), ahead of its last row.
  Table t = MakeTwoChunkTable(16, 2, 2);
  ASSERT_EQ(t.ChunkFor(10), 0u);
  ASSERT_EQ(t.key_chunk(0).partition(0).size, 8u);
  const Value dst = 41;
  ASSERT_EQ(t.ChunkFor(dst), 1u);
  const ChunkStatsSnapshot before = t.CoherentStatsSnapshot(0);
  ASSERT_TRUE(t.UpdateKey(10, dst));
  const ChunkStatsSnapshot after = t.CoherentStatsSnapshot(0);
  // One probe and one read of the 8-row partition, plus the one read of the
  // swap that closes the hole.
  EXPECT_EQ(after.partitions_scanned - before.partitions_scanned, 1u);
  EXPECT_EQ(after.element_reads - before.element_reads, 9u);
  std::vector<Payload> row;
  ASSERT_EQ(t.PointLookup(dst, &row), 1u);
  EXPECT_EQ(row, std::vector<Payload>{PayloadOf(10)});
  EXPECT_EQ(t.PointLookup(10, nullptr), 0u);
  EXPECT_EQ(t.num_rows(), 32u);
  t.ValidateInvariants();
}

TEST(Table, OppositeCrossChunkMovesNeitherDeadlockNorLoseRows) {
  // One thread moves chunk 0's keys into chunk 1 while another moves chunk
  // 1's keys into chunk 0, each move latching both chunks, and a third reads
  // full-domain sums. Moved keys are odd, so no move names another's key.
  const size_t per_chunk = 512;
  const size_t moves = per_chunk / 2;
  Table t = MakeTwoChunkTable(per_chunk, 8, 4);
  const Value base1 = static_cast<Value>(2 * per_chunk);  // chunk 1's first key
  std::multiset<Payload> payloads;
  std::map<Value, Payload> want;  // key -> payload after every move
  for (Value k = 0; k < 2 * base1; k += 2) {
    payloads.insert(PayloadOf(k));
    want[k] = PayloadOf(k);
  }
  for (size_t i = 0; i < moves; ++i) {
    const Value from0 = static_cast<Value>(2 * i);
    const Value from1 = base1 + static_cast<Value>(2 * i);
    ASSERT_EQ(t.ChunkFor(from0 + base1 + 1), 1u);
    ASSERT_EQ(t.ChunkFor(from1 - base1 + 1), 0u);
    want.erase(from0);
    want.erase(from1);
    want[from0 + base1 + 1] = PayloadOf(from0);
    want[from1 - base1 + 1] = PayloadOf(from1);
  }

  std::atomic<bool> reading{false};
  std::atomic<int> writers_left{2};
  std::atomic<size_t> failed_moves{0};
  auto mover = [&](Value from_base, Value shift) {
    while (!reading.load()) std::this_thread::yield();
    for (size_t i = 0; i < moves; ++i) {
      const Value from = from_base + static_cast<Value>(2 * i);
      if (!t.UpdateKey(from, from + shift)) ++failed_moves;
    }
    --writers_left;
  };
  ScanSpec sum = ScanSpec::Sum(0, 0, {0});
  sum.full_domain = true;
  std::thread reader([&] {
    do {
      ScanPartial out;
      for (size_t c = 0; c < t.num_chunks(); ++c) out.Merge(t.ScanSpecInChunk(c, sum));
      reading.store(true);
    } while (writers_left.load() > 0);
  });
  std::thread forward(mover, Value{0}, base1 + 1);
  std::thread backward(mover, base1, -base1 + 1);
  forward.join();
  backward.join();
  reader.join();

  EXPECT_EQ(failed_moves.load(), 0u);
  EXPECT_EQ(t.num_rows(), 2 * per_chunk);
  t.ValidateInvariants();
  std::multiset<Payload> got;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const ChunkRows rows = t.SnapshotChunkRows(c);
    got.insert(rows.payload[0].begin(), rows.payload[0].end());
  }
  EXPECT_EQ(got, payloads);
  for (const auto& [key, payload] : want) {
    std::vector<Payload> row;
    ASSERT_EQ(t.PointLookup(key, &row), 1u) << key;
    EXPECT_EQ(row[0], payload) << key;
  }
}

TEST(Table, DeleteShrinksAndValidates) {
  Table t = MakeTable(2048, 1, 512, 4, 1, 7);
  Rng rng(8);
  size_t deleted = 0;
  for (int i = 0; i < 500; ++i) {
    deleted += t.Delete(static_cast<Value>(rng.Below(2048 * 4)));
  }
  EXPECT_EQ(t.num_rows(), 2048 - deleted);
  t.ValidateInvariants();
}

TEST(Table, MemoryBytesCoversGhostsAndPayload) {
  Table dense = MakeTable(4096, 2, 1024, 8, 0, 9);
  Table ghosty = MakeTable(4096, 2, 1024, 8, 64, 9);
  EXPECT_GT(ghosty.MemoryBytes(), dense.MemoryBytes());
  // Key (8B) + 2 payloads (4B each) = 16B/row lower bound.
  EXPECT_GE(dense.MemoryBytes(), 4096u * 16u);
}

// Long random-operation fuzz across chunks with a reference model; verifies
// payload integrity (payload stays equal to f(key) per construction for
// inserted rows) and row-count accounting under mixed updates.
class TableFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableFuzz, MatchesReference) {
  Table t = MakeTable(4096, 1, 512, 8, 2, GetParam());
  std::multiset<Value> oracle;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const auto& chunk = t.key_chunk(c);
    for (size_t p = 0; p < chunk.num_partitions(); ++p) {
      const auto& part = chunk.partition(p);
      for (size_t s = part.begin; s < part.begin + part.size; ++s) {
        oracle.insert(chunk.raw_data()[s]);
      }
    }
  }
  ASSERT_EQ(oracle.size(), t.num_rows());

  Rng rng(GetParam() * 31 + 7);
  const Value domain = 4096 * 4;
  for (int i = 0; i < 4000; ++i) {
    const Value v = static_cast<Value>(rng.Below(domain));
    switch (rng.Below(5)) {
      case 0:
        t.Insert(v, {static_cast<Payload>(v % 1000)});
        oracle.insert(v);
        break;
      case 1: {
        const size_t d = t.Delete(v);
        if (oracle.count(v)) {
          ASSERT_EQ(d, 1u);
          oracle.erase(oracle.find(v));
        } else {
          ASSERT_EQ(d, 0u);
        }
        break;
      }
      case 2: {
        const Value w = static_cast<Value>(rng.Below(domain));
        const bool ok = t.UpdateKey(v, w);
        if (oracle.count(v)) {
          ASSERT_TRUE(ok);
          oracle.erase(oracle.find(v));
          oracle.insert(w);
        } else {
          ASSERT_FALSE(ok);
        }
        break;
      }
      case 3:
        ASSERT_EQ(t.PointLookup(v, nullptr), oracle.count(v));
        break;
      default: {
        const Value w = v + static_cast<Value>(rng.Below(500));
        uint64_t expect = 0;
        for (auto it = oracle.lower_bound(v); it != oracle.end() && *it < w; ++it) {
          ++expect;
        }
        ASSERT_EQ(CountRange(t, v, w), expect);
      }
    }
  }
  EXPECT_EQ(t.num_rows(), oracle.size());
  t.ValidateInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFuzz, ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace casper
