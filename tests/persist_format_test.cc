// Durable format units: the chunk-file codec, the manifest, and the journal.
// The contract under test, per artifact:
//   (1) encode -> serialize -> parse is lossless (geometry, keys, payload,
//       zones), and every cold-scan answer over the parsed image equals a
//       brute-force evaluation of the same rows;
//   (2) corruption — a flipped byte, a truncated tail, a wrong magic — is a
//       clean Status, never a crash, an OOB read, or silently wrong data;
//   (3) the journal's valid prefix is exactly the records written before a
//       torn write, at EVERY byte offset the tear can land on.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/chunk_format.h"
#include "persist/durable_store.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/manifest.h"
#include "persist/store.h"
#include "storage/partition_scan.h"
#include "util/rng.h"

namespace casper {
namespace persist {
namespace {

std::string TempDir() {
  std::string dir = ::testing::TempDir() + "casper_persist_format_" +
                    std::to_string(::getpid());
  EXPECT_TRUE(EnsureDir(dir).ok());
  return dir;
}

/// A synthetic chunk: sorted keys cut into partitions with ghost slots, and
/// payload columns with controllable cardinality (low => dictionary wins,
/// high => FoR wins on disk).
ChunkRows MakeChunk(size_t rows, size_t partitions, size_t payload_cols,
                    uint32_t payload_mod, uint64_t seed) {
  ChunkRows c;
  Rng rng(seed);
  c.keys.reserve(rows);
  Value k = 0;
  for (size_t i = 0; i < rows; ++i) {
    k += static_cast<Value>(rng.Next() % 7);
    c.keys.push_back(k);
  }
  c.payload.resize(payload_cols);
  for (size_t col = 0; col < payload_cols; ++col) {
    for (size_t i = 0; i < rows; ++i) {
      c.payload[col].push_back(
          static_cast<Payload>(rng.Next() % payload_mod) + 100 * col);
    }
  }
  // Cut into partitions, sliding each cut past duplicate runs (the same rule
  // Build enforces: routing bounds must strictly increase, so no run of equal
  // keys may straddle a partition boundary).
  size_t begin = 0;
  size_t t = 0;
  while (begin < rows) {
    size_t end = std::min(rows, (t + 1) * rows / partitions);
    if (end <= begin) end = begin + 1;
    while (end < rows && c.keys[end - 1] == c.keys[end]) ++end;
    ChunkPartitionMeta p;
    p.size = end - begin;
    p.cap = p.size + (t % 3);  // some partitions carry ghost slots
    p.min_val = c.keys[begin];
    p.max_val = c.keys[end - 1];
    p.upper = c.keys[end - 1];
    c.parts.push_back(p);
    begin = end;
    ++t;
  }
  return c;
}

TEST(ChunkFormat, RoundTripLossless) {
  const ChunkRows c = MakeChunk(5000, 16, 2, 50, 42);
  const PersistedChunk enc = ChunkWriter::Encode(3, c);
  std::string bytes;
  ChunkWriter::Serialize(enc, &bytes);

  PersistedChunk dec;
  ASSERT_TRUE(ChunkReader::Parse(bytes, &dec).ok());
  EXPECT_EQ(dec.chunk_index, 3u);
  EXPECT_EQ(dec.rows, c.keys.size());
  ASSERT_EQ(dec.parts.size(), c.parts.size());
  for (size_t t = 0; t < c.parts.size(); ++t) {
    EXPECT_EQ(dec.parts[t].size, c.parts[t].size);
    EXPECT_EQ(dec.parts[t].cap, c.parts[t].cap);
    EXPECT_EQ(dec.parts[t].upper, c.parts[t].upper);
    EXPECT_EQ(dec.parts[t].min_val, c.parts[t].min_val);
    EXPECT_EQ(dec.parts[t].max_val, c.parts[t].max_val);
  }

  // DecodeChunkRows is Encode's inverse: the same rows in the same order.
  const ChunkRows d = DecodeChunkRows(dec);
  EXPECT_EQ(d.keys, c.keys);
  EXPECT_EQ(d.payload, c.payload);
  ASSERT_EQ(d.parts.size(), c.parts.size());
}

TEST(ChunkFormat, GoldenBytesPinTheV1Image) {
  // A fixed chunk covering both disk codecs (column 0 FoR-shaped, column 1
  // dictionary-shaped: four distinct values spread over a wide range), ghost
  // slots, and an empty trailing partition. Its byte length and trailing CRC
  // pin the v1 image: any change to the encoder or the serializer that moves
  // a byte fails here.
  ChunkRows c = MakeChunk(3000, 10, 2, 1u << 20, 2024);
  for (Payload& v : c.payload[1]) v = (v % 4) * 1000003u;
  ChunkPartitionMeta tail;
  tail.cap = 3;
  tail.upper = c.parts.back().upper + 10;
  c.parts.push_back(tail);
  const PersistedChunk enc = ChunkWriter::Encode(5, c);
  EXPECT_EQ(enc.encoding.payload[0]->encoding(),
            PayloadEncoding::kFrameOfReference);
  EXPECT_EQ(enc.encoding.payload[1]->encoding(), PayloadEncoding::kDictionary);
  std::string bytes;
  ChunkWriter::Serialize(enc, &bytes);
  ASSERT_EQ(bytes.size(), 13412u);
  uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + bytes.size() - sizeof(crc), sizeof(crc));
  EXPECT_EQ(crc, 0xe3e6b5e2u);
}

/// The resident geometry an evicted chunk of these rows keeps: Build cut at
/// the same partition sizes (MakeChunk never splits a run of equal keys),
/// with ghosts = cap - size.
PartitionedColumnChunk GeometryOf(const ChunkRows& c) {
  std::vector<size_t> sizes;
  std::vector<size_t> ghosts;
  for (const ChunkPartitionMeta& p : c.parts) {
    sizes.push_back(p.size);
    ghosts.push_back(p.cap - p.size);
  }
  return PartitionedColumnChunk::Build(c.keys, sizes, ghosts);
}

TEST(ChunkFormat, ColdScansMatchBruteForce) {
  for (const uint32_t payload_mod : {8u, 1u << 20}) {  // dict- and FoR-shaped
    const ChunkRows c = MakeChunk(4000, 12, 2, payload_mod, 7);
    const PersistedChunk enc =
        ChunkWriter::Encode(0, c);
    std::string bytes;
    ChunkWriter::Serialize(enc, &bytes);
    PersistedChunk f;
    ASSERT_TRUE(ChunkReader::Parse(bytes, &f).ok());
    // The parsed file's rows, read next to the geometry built from the same
    // rows — how a table reads an evicted chunk.
    const PartitionedColumnChunk chunk = GeometryOf(c);
    ASSERT_EQ(chunk.num_partitions(), f.parts.size());
    const PartitionSource src = PartitionSource::File(chunk, f.encoding);

    ChunkStats stats;
    Rng rng(99);
    const Value max_key = c.keys.back();
    for (int i = 0; i < 200; ++i) {
      const Value lo = static_cast<Value>(rng.Next() % (max_key + 2));
      const Value hi =
          lo + static_cast<Value>(rng.Next() % (max_key - lo + 2));
      uint64_t count = 0;
      uint64_t pay_sum = 0;
      for (size_t r = 0; r < c.keys.size(); ++r) {
        if (c.keys[r] >= lo && c.keys[r] < hi) {
          ++count;
          pay_sum += c.payload[0][r] + c.payload[1][r];
        }
      }
      const ScanPartial cnt = ScanPartitions(ScanSpec::Count(lo, hi), src, &stats);
      EXPECT_EQ(cnt.count, count);
      // Sum specs populate only the sum (same contract as the resident
      // EvalSpecRows: count is the kCount aggregate's output).
      const ScanPartial sum =
          ScanPartitions(ScanSpec::Sum(lo, hi, {0, 1}), src, &stats);
      EXPECT_EQ(sum.sum, pay_sum);
    }

    // Point reads: every 37th live key, plus guaranteed misses.
    for (size_t r = 0; r < c.keys.size(); r += 37) {
      const Value key = c.keys[r];
      const size_t t = chunk.ProbePartition(key);
      ASSERT_NE(t, PartitionedColumnChunk::kNoPartition);
      std::vector<Payload> row;
      const size_t n = PointRead(src, t, key, &row, &stats);
      EXPECT_EQ(n, static_cast<size_t>(
                       std::count(c.keys.begin(), c.keys.end(), key)));
      ASSERT_EQ(row.size(), 2u);
      // The first match's payload must belong to SOME row with this key.
      bool found = false;
      for (size_t s = 0; s < c.keys.size(); ++s) {
        if (c.keys[s] == key && c.payload[0][s] == row[0] &&
            c.payload[1][s] == row[1]) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
    // A miss inside a partition's zone map reads the partition and finds
    // nothing; a miss past every zone is pruned before any row is read.
    for (size_t t = 0; t < chunk.num_partitions(); ++t) {
      const auto& p = chunk.partition(t);
      for (Value v = p.min_val; v < p.max_val; ++v) {
        if (std::binary_search(c.keys.begin(), c.keys.end(), v)) continue;
        ASSERT_EQ(chunk.ProbePartition(v), t);
        std::vector<Payload> row;
        EXPECT_EQ(PointRead(src, t, v, &row, &stats), 0u);
        EXPECT_TRUE(row.empty());
        break;
      }
    }
    EXPECT_EQ(chunk.ProbePartition(max_key + 10),
              PartitionedColumnChunk::kNoPartition);

    // Ranks: the live keys below each probe.
    std::vector<Value> probes;
    for (Value v = -3; v <= max_key + 3; v += 97) probes.push_back(v);
    std::vector<size_t> ranks(probes.size());
    RankKeys(src, probes.data(), probes.size(), ranks.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(ranks[i], static_cast<size_t>(
                              std::lower_bound(c.keys.begin(), c.keys.end(),
                                               probes[i]) -
                              c.keys.begin()))
          << probes[i];
    }

    // Full scan covers both domain edges.
    const ScanPartial full = ScanPartitions(ScanSpec::FullScan(), src, &stats);
    EXPECT_EQ(full.count, c.keys.size());
  }
}

TEST(ChunkFormat, CorruptionIsACleanStatus) {
  const ChunkRows c = MakeChunk(1000, 4, 1, 30, 5);
  const PersistedChunk enc = ChunkWriter::Encode(0, c);
  std::string bytes;
  ChunkWriter::Serialize(enc, &bytes);

  PersistedChunk out;
  // Every single-byte flip must be caught (CRC or structural checks).
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    std::string bad = bytes;
    const size_t pos = rng.Next() % bad.size();
    bad[pos] = static_cast<char>(bad[pos] ^ (1u << (rng.Next() % 8)));
    EXPECT_FALSE(ChunkReader::Parse(bad, &out).ok()) << "flip at " << pos;
  }
  // Every truncation must be caught.
  for (size_t len = 0; len < bytes.size(); len += 101) {
    EXPECT_FALSE(ChunkReader::Parse(bytes.substr(0, len), &out).ok());
  }
  EXPECT_TRUE(ChunkReader::Parse(bytes, &out).ok());

  // Geometry the partition routing cannot route, behind a valid CRC: no
  // partitions at all, and partition uppers out of order.
  PersistedChunk no_parts;  // zero rows, so every other count agrees
  no_parts.encoding.live_prefix = {0};
  no_parts.encoding.payload.resize(1);
  no_parts.encoding.payload_zones.resize(1);
  std::string bad;
  ChunkWriter::Serialize(no_parts, &bad);
  EXPECT_FALSE(ChunkReader::Parse(bad, &out).ok());

  PersistedChunk unordered = enc;
  std::swap(unordered.parts[1].upper, unordered.parts[2].upper);
  bad.clear();
  ChunkWriter::Serialize(unordered, &bad);
  EXPECT_FALSE(ChunkReader::Parse(bad, &out).ok());

  // A dictionary code past the dictionary, behind a valid CRC: 3 entries,
  // 2-bit codes, and one row holding code 3.
  PersistedChunk past_dict = enc;
  past_dict.encoding.payload[0] = PackedPayloadColumn::FromParts(
      PayloadEncoding::kDictionary, 0, {10, 20, 30},
      BitPackedArray::Pack(enc.rows, 2, [](size_t i) -> uint64_t {
        return i == 500 ? 3 : i % 3;
      }));
  bad.clear();
  ChunkWriter::Serialize(past_dict, &bad);
  EXPECT_FALSE(ChunkReader::Parse(bad, &out).ok());
}

TEST(ChunkFormat, FileRoundTripFillsFileBytes) {
  const std::string dir = TempDir();
  const ChunkRows c = MakeChunk(2000, 8, 1, 1000, 11);
  const PersistedChunk enc = ChunkWriter::Encode(0, c);
  const std::string path = dir + "/chunk_0.cspr";
  ASSERT_TRUE(ChunkWriter::Write(path, enc).ok());
  PersistedChunk dec;
  ASSERT_TRUE(ChunkReader::Read(path, &dec).ok());
  EXPECT_GT(dec.file_bytes, 0u);
  EXPECT_EQ(dec.rows, enc.rows);
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(Manifest, RoundTripAndCorruption) {
  const std::string dir = TempDir();
  const std::string path = dir + "/MANIFEST";
  Manifest m;
  m.layout_mode = 5;
  m.payload_cols = 2;
  m.num_chunks = 7;
  m.base_rows = 123456;
  m.chunk_values = 8192;
  ASSERT_TRUE(WriteManifest(path, m).ok());

  Manifest r;
  ASSERT_TRUE(ReadManifest(path, &r).ok());
  EXPECT_EQ(r.layout_mode, m.layout_mode);
  EXPECT_EQ(r.payload_cols, m.payload_cols);
  EXPECT_EQ(r.num_chunks, m.num_chunks);
  EXPECT_EQ(r.base_rows, m.base_rows);
  EXPECT_EQ(r.chunk_values, m.chunk_values);

  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    const std::string bad_path = dir + "/MANIFEST.bad";
    ASSERT_TRUE(WriteFileAtomic(bad_path, bad).ok());
    EXPECT_FALSE(ReadManifest(bad_path, &r).ok()) << "flip at " << pos;
  }
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_TRUE(RemoveFileIfExists(dir + "/MANIFEST.bad").ok());
}

std::vector<JournalRecord> WriteSampleJournal(const std::string& path,
                                              size_t runs) {
  JournalWriter w;
  EXPECT_TRUE(w.Open(path, 0, 1).ok());
  std::vector<JournalRecord> want;
  Rng rng(17);
  for (size_t i = 0; i < runs; ++i) {
    JournalRecord rec;
    rec.seq = i;
    if (i % 2 == 0) {
      rec.type = JournalRecordType::kOpsRun;
      const size_t n = 1 + rng.Next() % 5;
      for (size_t j = 0; j < n; ++j) {
        rec.ops.push_back({OpKind::kDelete,
                           static_cast<Value>(rng.Next() % 1000), 0});
      }
      EXPECT_TRUE(w.AppendOps(rec.ops.data(), rec.ops.size()).ok());
    } else {
      rec.type = JournalRecordType::kRowsRun;
      const size_t n = 1 + rng.Next() % 3;
      for (size_t j = 0; j < n; ++j) {
        Row row;
        row.key = static_cast<Value>(rng.Next() % 1000);
        row.payload = {static_cast<Payload>(rng.Next() % 100)};
        rec.rows.push_back(row);
      }
      EXPECT_TRUE(w.AppendRows(rec.rows.data(), rec.rows.size()).ok());
    }
    want.push_back(rec);
  }
  w.Close();
  return want;
}

void ExpectRecordsEqual(const std::vector<JournalRecord>& got,
                        const std::vector<JournalRecord>& want, size_t n) {
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(static_cast<int>(got[i].type), static_cast<int>(want[i].type));
    ASSERT_EQ(got[i].ops.size(), want[i].ops.size());
    for (size_t j = 0; j < want[i].ops.size(); ++j) {
      EXPECT_EQ(static_cast<int>(got[i].ops[j].kind),
                static_cast<int>(want[i].ops[j].kind));
      EXPECT_EQ(got[i].ops[j].a, want[i].ops[j].a);
      EXPECT_EQ(got[i].ops[j].b, want[i].ops[j].b);
    }
    ASSERT_EQ(got[i].rows.size(), want[i].rows.size());
    for (size_t j = 0; j < want[i].rows.size(); ++j) {
      EXPECT_EQ(got[i].rows[j].key, want[i].rows[j].key);
      EXPECT_EQ(got[i].rows[j].payload, want[i].rows[j].payload);
    }
  }
}

TEST(Journal, RoundTripAndReopen) {
  const std::string dir = TempDir();
  const std::string path = dir + "/journal.wal";
  RemoveFileIfExists(path);
  const auto want = WriteSampleJournal(path, 10);

  std::vector<JournalRecord> got;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(ReadJournal(path, &got, &valid_bytes).ok());
  ExpectRecordsEqual(got, want, want.size());

  // Reopen at the next sequence number and append one more record.
  JournalWriter w;
  ASSERT_TRUE(w.Open(path, got.size(), 1).ok());
  Operation op{OpKind::kUpdate, 1, 2};
  ASSERT_TRUE(w.AppendOps(&op, 1).ok());
  w.Close();
  ASSERT_TRUE(ReadJournal(path, &got, &valid_bytes).ok());
  EXPECT_EQ(got.size(), want.size() + 1);
  EXPECT_EQ(got.back().seq, want.size());
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(Journal, MissingFileIsEmptyNotError) {
  std::vector<JournalRecord> got;
  uint64_t valid_bytes = 99;
  ASSERT_TRUE(
      ReadJournal(TempDir() + "/nonexistent.wal", &got, &valid_bytes).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(valid_bytes, 0u);
}

TEST(Journal, TornWriteAtEveryOffsetYieldsExactPrefix) {
  const std::string dir = TempDir();
  const std::string ref_path = dir + "/journal_ref.wal";
  RemoveFileIfExists(ref_path);
  const auto want = WriteSampleJournal(ref_path, 6);
  std::string ref_bytes;
  ASSERT_TRUE(ReadFileToString(ref_path, &ref_bytes).ok());

  // Record boundaries: re-reading prefixes of the reference image tells us,
  // for every byte length L, how many full records fit in L bytes.
  std::vector<JournalRecord> got;
  uint64_t valid_bytes = 0;

  // Fuzz the tear offset across the whole image (step keeps runtime sane;
  // offsets inside headers, payloads and CRCs are all hit).
  const std::string path = dir + "/journal_torn.wal";
  for (size_t cut = 0; cut < ref_bytes.size(); cut += 7) {
    RemoveFileIfExists(path);
    testing::SetWriteFailureAfterBytes(static_cast<int64_t>(cut));
    {
      JournalWriter w;
      if (w.Open(path, 0, 1).ok()) {
        Rng rng(17);  // same stream as WriteSampleJournal
        for (size_t i = 0; i < 6; ++i) {
          if (i % 2 == 0) {
            std::vector<Operation> ops;
            const size_t n = 1 + rng.Next() % 5;
            for (size_t j = 0; j < n; ++j) {
              ops.push_back({OpKind::kDelete,
                             static_cast<Value>(rng.Next() % 1000), 0});
            }
            if (!w.AppendOps(ops.data(), ops.size()).ok()) break;
          } else {
            std::vector<Row> rows;
            const size_t n = 1 + rng.Next() % 3;
            for (size_t j = 0; j < n; ++j) {
              Row row;
              row.key = static_cast<Value>(rng.Next() % 1000);
              row.payload = {static_cast<Payload>(rng.Next() % 100)};
              rows.push_back(row);
            }
            if (!w.AppendRows(rows.data(), rows.size()).ok()) break;
          }
        }
        w.Close();
      }
    }
    testing::ClearWriteFailure();

    // However many bytes landed, the reader must recover a clean record
    // prefix of the reference stream — never a torn or invented record.
    ASSERT_TRUE(ReadJournal(path, &got, &valid_bytes).ok()) << "cut " << cut;
    ASSERT_LE(got.size(), want.size());
    ExpectRecordsEqual(got, want, got.size());

    // And truncation to the valid prefix + reopen must accept appends.
    ASSERT_TRUE(TruncateFile(path, valid_bytes).ok());
    JournalWriter w2;
    ASSERT_TRUE(w2.Open(path, got.size(), 1).ok());
    Operation op{OpKind::kDelete, 5, 0};
    ASSERT_TRUE(w2.AppendOps(&op, 1).ok());
    w2.Close();
    std::vector<JournalRecord> after;
    uint64_t after_bytes = 0;
    ASSERT_TRUE(ReadJournal(path, &after, &after_bytes).ok());
    ASSERT_EQ(after.size(), got.size() + 1);
  }
  RemoveFileIfExists(path);
  RemoveFileIfExists(ref_path);
}

TEST(Journal, GarbageTailEndsValidPrefix) {
  const std::string dir = TempDir();
  const std::string path = dir + "/journal_garbage.wal";
  RemoveFileIfExists(path);
  const auto want = WriteSampleJournal(path, 4);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  const uint64_t clean_len = bytes.size();

  // Append garbage that starts with a valid-looking magic.
  FileAppender f;
  ASSERT_TRUE(f.Open(path).ok());
  const uint32_t magic = kJournalMagic;
  ASSERT_TRUE(f.Append(&magic, sizeof(magic)).ok());
  const char junk[13] = "notarecord!!";
  ASSERT_TRUE(f.Append(junk, sizeof(junk)).ok());
  f.Close();

  std::vector<JournalRecord> got;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(ReadJournal(path, &got, &valid_bytes).ok());
  ExpectRecordsEqual(got, want, want.size());
  EXPECT_EQ(valid_bytes, clean_len);
  RemoveFileIfExists(path);
}

TEST(Journal, GoldenBytesPinTheRecordImage) {
  // One operation record made from a mixed run (its reads are dropped on the
  // way in) and one row record, journaled through the store. Each record's
  // byte length and trailing CRC (which covers every byte before it) pin the
  // wire image: any change to the header, the op or row serializers, or the
  // read filter that moves a byte fails here.
  const std::string dir = TempDir() + "/golden_journal_store";
  EXPECT_TRUE(EnsureDir(dir).ok());
  StoreLayout layout(dir);
  ASSERT_TRUE(layout.EnsureLayout().ok());
  RemoveFileIfExists(layout.JournalPath());
  DurableStore store(layout);
  ASSERT_TRUE(store.OpenJournal(0, 1).ok());
  const std::vector<Operation> mixed = {{OpKind::kRangeSum, -5, 90},
                                        {OpKind::kInsert, 42, 0},
                                        {OpKind::kPointQuery, 42, 0},
                                        {OpKind::kDelete, -17, 0},
                                        {OpKind::kRangeAvg, 0, 1000},
                                        {OpKind::kUpdate, 3, 1LL << 40}};
  store.LogOps(mixed.data(), mixed.size());
  const std::vector<Row> rows = {{7, {1, 2, 3}}, {-9, {0xFFFFFFFFu, 0, 5}}};
  store.CommitRows(rows.data(), rows.size(), [] {});

  std::string bytes;
  ASSERT_TRUE(ReadFileToString(layout.JournalPath(), &bytes).ok());
  constexpr size_t kOpsRecord = 24 + 8 + 3 * 20 + 4;
  constexpr size_t kRowsRecord = 24 + 16 + 2 * (8 + 3 * 4) + 4;
  ASSERT_EQ(bytes.size(), kOpsRecord + kRowsRecord);
  uint32_t ops_crc = 0;
  uint32_t rows_crc = 0;
  std::memcpy(&ops_crc, bytes.data() + kOpsRecord - 4, 4);
  std::memcpy(&rows_crc, bytes.data() + bytes.size() - 4, 4);
  EXPECT_EQ(ops_crc, 0xd563a463u);
  EXPECT_EQ(rows_crc, 0x9635a0b2u);
  RemoveFileIfExists(layout.JournalPath());
}

TEST(DurableStoreUnits, LogOpsFiltersReadOnlyRuns) {
  const std::string dir = TempDir() + "/log_filter_store";
  EXPECT_TRUE(EnsureDir(dir).ok());
  StoreLayout layout(dir);
  ASSERT_TRUE(layout.EnsureLayout().ok());
  DurableStore store(layout);
  ASSERT_TRUE(store.OpenJournal(0, 1).ok());

  // A run of pure queries appends nothing.
  std::vector<Operation> reads = {{OpKind::kPointQuery, 1, 0},
                                  {OpKind::kRangeCount, 0, 10},
                                  {OpKind::kRangeSum, 0, 10}};
  store.LogOps(reads.data(), reads.size());
  std::vector<JournalRecord> got;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(ReadJournal(layout.JournalPath(), &got, &valid_bytes).ok());
  EXPECT_TRUE(got.empty());

  // A mixed run keeps exactly the writes, in order.
  std::vector<Operation> mixed = {{OpKind::kPointQuery, 1, 0},
                                  {OpKind::kInsert, 42, 0},
                                  {OpKind::kRangeCount, 0, 10},
                                  {OpKind::kDelete, 17, 0},
                                  {OpKind::kUpdate, 3, 9}};
  store.LogOps(mixed.data(), mixed.size());
  ASSERT_TRUE(ReadJournal(layout.JournalPath(), &got, &valid_bytes).ok());
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].ops.size(), 3u);
  EXPECT_EQ(static_cast<int>(got[0].ops[0].kind),
            static_cast<int>(OpKind::kInsert));
  EXPECT_EQ(static_cast<int>(got[0].ops[1].kind),
            static_cast<int>(OpKind::kDelete));
  EXPECT_EQ(static_cast<int>(got[0].ops[2].kind),
            static_cast<int>(OpKind::kUpdate));
  RemoveFileIfExists(layout.JournalPath());
}

}  // namespace
}  // namespace persist
}  // namespace casper
