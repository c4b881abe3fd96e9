// Durable tiered storage at the engine surface. The contract under test:
//   (1) EngineOptions validation rejects every nonsensical persistence
//       config with a recoverable Status (one test per rejection rule);
//   (2) a table whose chunks are ALL evicted to disk answers a randomized
//       ScanSpec grid bit-identically to an untouched in-memory engine, and
//       writes transparently promote the chunks they touch;
//   (3) crash-safe recovery: Open on a store directory recovers to exactly
//       the state after the last committed write run — at every named kill
//       point (fork + CASPER_PERSIST_CRASH_POINT) and at every journal byte
//       offset a torn write can land on (truncation fuzz over run sizes);
//   (4) the TierManager keeps the resident footprint at or under the byte
//       budget while hot chunks stay (or get promoted back) resident.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "layouts/partitioned.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/store.h"
#include "util/rng.h"

namespace casper {
namespace {

constexpr size_t kRows = size_t{1} << 14;
constexpr Value kDomain = Value{1} << 15;
constexpr size_t kPayloadCols = 2;
constexpr size_t kChunkValues = 2048;  // 8 chunks

struct TableData {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;
};

TableData MakeData(uint64_t seed = 11) {
  TableData d;
  Rng rng(seed);
  d.keys.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    d.keys.push_back(static_cast<Value>(rng.Next() % kDomain));
  }
  d.payload.resize(kPayloadCols);
  for (size_t c = 0; c < kPayloadCols; ++c) {
    for (size_t i = 0; i < kRows; ++i) {
      // Key-derived payloads: duplicate keys carry equal payloads, so any
      // physical reordering (eviction round-trips, recovery rebuilds) stays
      // unobservable through every query surface.
      const Value key = d.keys[i];
      d.payload[c].push_back(static_cast<Payload>(
          (static_cast<uint64_t>(key) * (c + 3)) % 10000));
    }
  }
  return d;
}

EngineOptions BaseOptions(const TableData& d, const std::string& storage_dir) {
  EngineOptions o;
  o.keys = d.keys;
  o.payload = d.payload;
  o.layout.mode = LayoutMode::kEquiWidthGhost;
  o.layout.chunk_values = kChunkValues;
  o.layout.block_values = 128;
  o.layout.equi_partitions = 16;
  o.layout.ghost_fraction = 0.02;
  o.persist.storage_dir = storage_dir;
  return o;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "casper_persist_" + tag + "_" +
                          std::to_string(::getpid());
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

PartitionedTable& TableOf(CasperEngine& e) { return e.layout().mutable_table(); }

/// Randomized query grid over every read surface; `a` and `b` must answer
/// each probe identically.
void ExpectSameAnswers(const CasperEngine& a, const CasperEngine& b,
                       uint64_t seed, int probes = 150) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.ScanAll(), b.ScanAll());
  Rng rng(seed);
  for (int i = 0; i < probes; ++i) {
    const Value lo = static_cast<Value>(rng.Next() % kDomain);
    const Value hi = lo + static_cast<Value>(rng.Next() % (kDomain - lo + 1));
    EXPECT_EQ(a.CountBetween(lo, hi), b.CountBetween(lo, hi));
    EXPECT_EQ(a.SumPayloadBetween(lo, hi, {0, 1}),
              b.SumPayloadBetween(lo, hi, {0, 1}));
    EXPECT_EQ(a.MinBetween(lo, hi, 0), b.MinBetween(lo, hi, 0));
    EXPECT_EQ(a.MaxBetween(lo, hi, 1), b.MaxBetween(lo, hi, 1));
    EXPECT_EQ(a.AvgBetween(lo, hi, 0), b.AvgBetween(lo, hi, 0));
    // A payload predicate: on evicted chunks it runs the payload-zone prune
    // and the predicate filter over the packed file columns.
    ScanSpec pred = ScanSpec::Sum(lo, hi, {0});
    const Payload plo = static_cast<Payload>(lo % 10000);
    pred.predicates.push_back({1, plo, plo + 2500});
    const ScanPartial pa_scan = a.ExecuteScan(pred);
    const ScanPartial pb_scan = b.ExecuteScan(pred);
    EXPECT_EQ(pa_scan.sum, pb_scan.sum);
    EXPECT_EQ(pa_scan.count, pb_scan.count);

    const Value key = static_cast<Value>(rng.Next() % kDomain);
    std::vector<Payload> pa, pb;
    EXPECT_EQ(a.Find(key, &pa), b.Find(key, &pb));
    EXPECT_EQ(pa, pb);
  }
}

// ---- (1) EngineOptions validation ------------------------------------------

TEST(ValidateEngineOptions, AcceptsBaseline) {
  const TableData d = MakeData();
  EXPECT_TRUE(ValidateEngineOptions(BaseOptions(d, "")).ok());
  const std::string dir = FreshDir("validate_ok");
  EXPECT_TRUE(ValidateEngineOptions(BaseOptions(d, dir)).ok());
}

TEST(ValidateEngineOptions, RejectsNonPositiveBudget) {
  const TableData d = MakeData();
  EngineOptions o = BaseOptions(d, FreshDir("validate_budget"));
  o.persist.memory_budget_bytes = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
  o.persist.memory_budget_bytes = -4096;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
  o.persist.memory_budget_bytes = 1 << 20;
  EXPECT_TRUE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptions, RejectsBudgetWithoutStorageDir) {
  const TableData d = MakeData();
  EngineOptions o = BaseOptions(d, "");
  o.persist.memory_budget_bytes = 1 << 20;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptions, RejectsUnwritableStorageDir) {
  const TableData d = MakeData();
  // /proc rejects directory creation: EnsureLayout fails cleanly.
  EngineOptions o = BaseOptions(d, "/proc/1/casper_no_such_store");
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

// The engine is the partitioned layout: a baseline mode is rejected with a
// Status whether or not the options ask for a store or for maintenance.
TEST(ValidateEngineOptions, RejectsBaselineModes) {
  const TableData d = MakeData();
  for (const LayoutMode mode :
       {LayoutMode::kNoOrder, LayoutMode::kSorted, LayoutMode::kDeltaStore}) {
    SCOPED_TRACE(LayoutModeName(mode));
    EngineOptions o = BaseOptions(d, "");
    o.layout.mode = mode;
    Status s = ValidateEngineOptions(o);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
    o.persist.storage_dir = FreshDir("validate_mode");
    s = ValidateEngineOptions(o);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
    o.persist.storage_dir.clear();
    o.maintenance.enabled = true;
    s = ValidateEngineOptions(o);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  }
}

TEST(ValidateEngineOptions, RejectsZeroFsyncInterval) {
  const TableData d = MakeData();
  EngineOptions o = BaseOptions(d, FreshDir("validate_fsync"));
  o.persist.journal_fsync_every = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptions, RejectsZeroGeometry) {
  const TableData d = MakeData();
  EngineOptions o = BaseOptions(d, "");
  o.layout.chunk_values = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
  o = BaseOptions(d, "");
  o.layout.block_values = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptions, RejectsZeroMaintenanceInterval) {
  const TableData d = MakeData();
  EngineOptions o = BaseOptions(d, "");
  o.maintenance.enabled = true;
  o.maintenance.background = true;
  o.maintenance.capture_interval = std::chrono::milliseconds(0);
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
  o.maintenance.capture_interval = std::chrono::milliseconds(100);
  EXPECT_TRUE(ValidateEngineOptions(o).ok());
  o.maintenance.decay = 2.0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
  o.maintenance.decay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptions, RejectsOverwritingAnExistingStore) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("validate_overwrite");
  { CasperEngine e = CasperEngine::Open(BaseOptions(d, dir)); }
  // Same dir, fresh keys: would shadow the durable data.
  EXPECT_FALSE(ValidateEngineOptions(BaseOptions(d, dir)).ok());
  // Empty keys = recover: fine.
  EngineOptions recover = BaseOptions(d, dir);
  recover.keys.clear();
  recover.payload.clear();
  EXPECT_TRUE(ValidateEngineOptions(recover).ok());
  std::system(("rm -rf " + dir).c_str());
}

// ---- (2) Evicted chunks: cold reads + write-triggered promotion ------------

TEST(TieredStorage, AllChunksEvictedAnswersIdentically) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("evict_all");
  CasperEngine cold = CasperEngine::Open(BaseOptions(d, dir));
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));

  // Writes before eviction, applied to both engines: random deletes leave
  // partition zone maps wider than the live keys, a contiguous key-range
  // delete empties whole partitions, and updates move rows across chunks.
  // Cold scans prune by those zone maps.
  Rng rng(41);
  for (int i = 0; i < 400; ++i) {
    const Value key = d.keys[rng.Next() % d.keys.size()];
    ASSERT_EQ(cold.Delete(key), ref.Delete(key));
  }
  for (Value key = 9000; key < 10500; ++key) {
    ASSERT_EQ(cold.Delete(key), ref.Delete(key));
  }
  for (int i = 0; i < 200; ++i) {
    const Value key = d.keys[rng.Next() % d.keys.size()];
    const Value to = (key + kDomain / 2) % kDomain;
    ASSERT_EQ(cold.Update(key, to), ref.Update(key, to));
  }
  ASSERT_EQ(cold.num_rows(), ref.num_rows());

  PartitionedTable& table = TableOf(cold);
  const persist::StoreLayout store(dir);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    ASSERT_TRUE(table.EvictChunk(c, store.TierChunkPath(c)));
    ASSERT_FALSE(table.ChunkResident(c));
    EXPECT_EQ(table.ChunkMemoryBytes(c), 0u);
  }
  table.ValidateInvariants();

  ExpectSameAnswers(cold, ref, 5);

  const ChunkStatsSnapshot totals = cold.layout().StatsSnapshots().Totals();
  EXPECT_EQ(totals.evictions, table.num_chunks());
  EXPECT_GT(totals.disk_reads, 0u);
  EXPECT_GT(totals.disk_bytes_read, 0u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(TieredStorage, EvictionRoundTripPreservesFingerprint) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("evict_fingerprint");
  CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
  PartitionedTable& table = TableOf(e);
  const uint64_t before = table.LayoutFingerprint();
  const persist::StoreLayout store(dir);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    ASSERT_TRUE(table.EvictChunk(c, store.TierChunkPath(c)));
  }
  // The fingerprint is computable cold (from the resident geometry summary)
  // and must not change across the round trip.
  EXPECT_EQ(table.LayoutFingerprint(), before);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    ASSERT_TRUE(table.PromoteChunk(c));
    ASSERT_TRUE(table.ChunkResident(c));
  }
  table.ValidateInvariants();
  EXPECT_EQ(table.LayoutFingerprint(), before);
  const ChunkStatsSnapshot totals = e.layout().StatsSnapshots().Totals();
  EXPECT_EQ(totals.promotions, table.num_chunks());
  std::system(("rm -rf " + dir).c_str());
}

TEST(TieredStorage, WritesPromoteTheChunksTheyTouch) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("write_promote");
  CasperEngine cold = CasperEngine::Open(BaseOptions(d, dir));
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));

  PartitionedTable& table = TableOf(cold);
  const persist::StoreLayout store(dir);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    ASSERT_TRUE(table.EvictChunk(c, store.TierChunkPath(c)));
  }

  // Writes across the key domain land in evicted chunks and must promote
  // them transparently; both engines see the same stream.
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const Value key = static_cast<Value>(rng.Next() % kDomain);
    switch (rng.Next() % 3) {
      case 0: {
        std::vector<Payload> row;
        for (size_t c = 0; c < kPayloadCols; ++c) {
          row.push_back(static_cast<Payload>(
              (static_cast<uint64_t>(key) * (c + 3)) % 10000));
        }
        cold.Insert(key, row);
        ref.Insert(key, row);
        break;
      }
      case 1:
        EXPECT_EQ(cold.Delete(key), ref.Delete(key));
        break;
      default: {
        const Value to = static_cast<Value>(rng.Next() % kDomain);
        EXPECT_EQ(cold.Update(key, to), ref.Update(key, to));
        break;
      }
    }
  }
  TableOf(cold).ValidateInvariants();
  ExpectSameAnswers(cold, ref, 7);
  const ChunkStatsSnapshot totals = cold.layout().StatsSnapshots().Totals();
  EXPECT_GT(totals.promotions, 0u);
  std::system(("rm -rf " + dir).c_str());
}

// ---- (3) Crash-safe recovery -----------------------------------------------

std::vector<Operation> WriteRun(Rng& rng, size_t n) {
  std::vector<Operation> ops;
  for (size_t i = 0; i < n; ++i) {
    const Value key = static_cast<Value>(rng.Next() % kDomain);
    switch (rng.Next() % 3) {
      case 0:
        ops.push_back({OpKind::kInsert, key, 0});
        break;
      case 1:
        ops.push_back({OpKind::kDelete, key, 0});
        break;
      default:
        ops.push_back(
            {OpKind::kUpdate, key, static_cast<Value>(rng.Next() % kDomain)});
        break;
    }
  }
  return ops;
}

TEST(Recovery, ReopenEqualsLiveEngine) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("reopen");
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
  {
    CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
    Rng rng(31);
    for (int run = 0; run < 10; ++run) {
      const auto ops = WriteRun(rng, 1 + rng.Next() % 40);
      e.RunMixed(ops);
      ref.RunMixed(ops);
    }
    std::vector<Row> rows;
    for (int i = 0; i < 25; ++i) {
      Row r;
      r.key = static_cast<Value>(i * 13 % kDomain);
      r.payload = {static_cast<Payload>((r.key * 3) % 10000),
                   static_cast<Payload>((r.key * 4) % 10000)};
      rows.push_back(r);
    }
    e.InsertRows(rows);
    ref.InsertRows(rows);
    e.Insert(99, {297, 396});
    ref.Insert(99, {297, 396});
    e.Delete(101);
    ref.Delete(101);
    e.Update(99, 77);
    ref.Update(99, 77);
    ExpectSameAnswers(e, ref, 13);
  }

  EngineOptions recover = BaseOptions(d, dir);
  recover.keys.clear();
  recover.payload.clear();
  CasperEngine r = CasperEngine::Open(std::move(recover));
  ExpectSameAnswers(r, ref, 13);
  // Recovered geometry must be usable for further writes + another reopen.
  r.Insert(500, {1500, 2000});
  ref.Insert(500, {1500, 2000});
  ExpectSameAnswers(r, ref, 17, 40);
  std::system(("rm -rf " + dir).c_str());
}

TEST(Recovery, ConcurrentWritersOnOneKeyReplayInApplyOrder) {
  // Two facade writers race on one key: Delete(k) against Insert(k) with
  // distinct payloads. Journal order must equal apply order, or replay
  // reorders a delete around an insert and the reopened engine diverges.
  const TableData d = MakeData();
  const std::string dir = FreshDir("write_race");
  constexpr Value kKey = kDomain + 7;  // absent from the base data
  constexpr Payload kOps = 4000;
  EngineOptions o = BaseOptions(d, dir);
  o.persist.journal_fsync_every = size_t{1} << 20;  // appends, few fsyncs
  size_t live_k = 0;
  std::vector<Payload> live_first;
  uint64_t live_rows = 0;
  int64_t live_sum = 0;
  {
    CasperEngine e = CasperEngine::Open(o);
    std::thread deleter([&] {
      for (Payload i = 0; i < kOps; ++i) e.Delete(kKey);
    });
    std::thread inserter([&] {
      for (Payload i = 0; i < kOps; ++i) e.Insert(kKey, {i, kOps + i});
    });
    deleter.join();
    inserter.join();
    live_k = e.Find(kKey, &live_first);
    live_rows = e.ScanAll();
    live_sum = e.SumPayloadBetween(0, kKey + 1, {0, 1});
    ASSERT_TRUE(e.FlushWal().ok());
  }
  EngineOptions recover = BaseOptions(d, dir);
  recover.keys.clear();
  recover.payload.clear();
  const CasperEngine r = CasperEngine::Open(std::move(recover));
  std::vector<Payload> first;
  EXPECT_EQ(r.Find(kKey, &first), live_k);
  EXPECT_EQ(first, live_first);
  EXPECT_EQ(r.ScanAll(), live_rows);
  EXPECT_EQ(r.SumPayloadBetween(0, kKey + 1, {0, 1}), live_sum);
  std::system(("rm -rf " + dir).c_str());
}

size_t JournalRecordCount(const std::string& dir) {
  std::vector<persist::JournalRecord> records;
  uint64_t valid_bytes = 0;
  const Status s = persist::ReadJournal(persist::StoreLayout(dir).JournalPath(),
                                        &records, &valid_bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return records.size();
}

TEST(Recovery, ReadOnlyRunMixedJournalsNothing) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("readonly_mixed");
  CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
  Rng rng(37);
  e.RunMixed(WriteRun(rng, 20));
  const size_t before = JournalRecordCount(dir);
  ASSERT_EQ(before, 1u);

  std::vector<Operation> reads;
  for (int i = 0; i < 64; ++i) {
    const Value lo = static_cast<Value>(rng.Next() % kDomain);
    reads.push_back({i % 2 == 0 ? OpKind::kRangeSum : OpKind::kPointQuery, lo,
                     lo + static_cast<Value>(rng.Next() % 4096) + 1});
  }
  e.RunMixed(reads);
  EXPECT_EQ(JournalRecordCount(dir), before);

  // The same call with a write in the stream does journal one record.
  reads.push_back({OpKind::kInsert, 7, 0});
  e.RunMixed(reads);
  EXPECT_EQ(JournalRecordCount(dir), before + 1);
  std::system(("rm -rf " + dir).c_str());
}

TEST(Recovery, SurvivesEvictionStateAtClose) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("reopen_evicted");
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
  {
    CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
    Rng rng(37);
    const auto ops = WriteRun(rng, 60);
    e.RunMixed(ops);
    ref.RunMixed(ops);
    // Evict half the chunks and leave them evicted across the close: the
    // journal + base files are the durable truth, tier files just a cache.
    PartitionedTable& table = TableOf(e);
    const persist::StoreLayout store(dir);
    for (size_t c = 0; c < table.num_chunks(); c += 2) {
      table.EvictChunk(c, store.TierChunkPath(c));
    }
  }
  EngineOptions recover = BaseOptions(d, dir);
  recover.keys.clear();
  recover.payload.clear();
  CasperEngine r = CasperEngine::Open(std::move(recover));
  ExpectSameAnswers(r, ref, 41);
  std::system(("rm -rf " + dir).c_str());
}

/// Runs `body` in a forked child and returns the child's wait status; the
/// child exits 0 when `body` returns.
int RunInChild(const std::function<void()>& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    body();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Forks a child that opens a store at `dir` and applies `runs` write
/// batches with the named kill point armed; returns the child's exit status.
int RunChildToCrash(const std::string& dir, const TableData& d,
                    const char* point, int runs) {
  return RunInChild([&] {
    // Child: arm the kill point, do the work, exit 0 if it never fires.
    ::setenv("CASPER_PERSIST_CRASH_POINT", point, 1);
    CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
    Rng rng(43);
    for (int run = 0; run < runs; ++run) {
      e.RunMixed(WriteRun(rng, 1 + rng.Next() % 30));
    }
  });
}

/// The recovery acceptance gate: whatever the journal's valid prefix holds,
/// the recovered engine must equal a fresh in-memory engine replaying
/// exactly those records serially.
void ExpectRecoveryEqualsSerialReplay(const std::string& dir,
                                      const TableData& d) {
  const persist::StoreLayout store(dir);
  std::vector<persist::JournalRecord> records;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(
      persist::ReadJournal(store.JournalPath(), &records, &valid_bytes).ok());

  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
  for (const persist::JournalRecord& rec : records) {
    if (rec.type == persist::JournalRecordType::kRowsRun) {
      ref.InsertRows(rec.rows);
    } else {
      ref.RunMixed(rec.ops);
    }
  }

  EngineOptions recover = BaseOptions(d, dir);
  recover.keys.clear();
  recover.payload.clear();
  CasperEngine r = CasperEngine::Open(std::move(recover));
  ExpectSameAnswers(r, ref, 47, 60);
}

TEST(Recovery, KillPointsDuringStoreCreationLeaveNoStore) {
  const TableData d = MakeData();
  // A crash anywhere before the manifest rename means the store never
  // existed: no manifest, and a re-open with keys creates it from scratch.
  int tag = 0;
  for (const char* point :
       {"store:before_chunk", "chunk:before_write", "file:before_rename",
        "store:before_manifest", "manifest:before_write"}) {
    const std::string dir =
        FreshDir("kill_create_" + std::to_string(tag++));
    const int status = RunChildToCrash(dir, d, point, 3);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    ASSERT_EQ(WEXITSTATUS(status), 42) << point;
    const persist::StoreLayout store(dir);
    EXPECT_FALSE(persist::FileExists(store.ManifestPath())) << point;

    // Re-open with keys: a clean create over the debris.
    CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
    CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
    ExpectSameAnswers(e, ref, 53, 40);
    std::system(("rm -rf " + dir).c_str());
  }
}

TEST(Recovery, KillPointsAfterCreationRecoverToLastCommittedRun) {
  const TableData d = MakeData();
  int tag = 0;
  for (const char* point : {"store:after_manifest", "journal:before_append",
                            "journal:before_sync", "journal:after_sync"}) {
    const std::string dir =
        FreshDir("kill_journal_" + std::to_string(tag++));
    const int status = RunChildToCrash(dir, d, point, 3);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    ASSERT_EQ(WEXITSTATUS(status), 42) << point;
    const persist::StoreLayout store(dir);
    ASSERT_TRUE(persist::FileExists(store.ManifestPath())) << point;
    ExpectRecoveryEqualsSerialReplay(dir, d);
    std::system(("rm -rf " + dir).c_str());
  }
}

TEST(Recovery, TornJournalFuzzAtEveryOffset) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("torn_fuzz");
  {
    CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
    Rng rng(59);
    for (int run = 0; run < 12; ++run) {
      // Fuzz over run sizes: singletons, small and mid-size batches, plus
      // the row-run record type.
      const size_t n = 1 + rng.Next() % 25;
      e.RunMixed(WriteRun(rng, n));
      if (run % 4 == 3) {
        std::vector<Row> rows;
        for (size_t i = 0; i < 1 + rng.Next() % 5; ++i) {
          Row r;
          r.key = static_cast<Value>(rng.Next() % kDomain);
          r.payload = {static_cast<Payload>((r.key * 3) % 10000),
                       static_cast<Payload>((r.key * 4) % 10000)};
          rows.push_back(r);
        }
        e.InsertRows(rows);
      }
    }
  }
  const persist::StoreLayout store(dir);
  std::string journal;
  ASSERT_TRUE(persist::ReadFileToString(store.JournalPath(), &journal).ok());
  ASSERT_GT(journal.size(), 0u);

  // Every byte offset is a possible crash position: truncate the journal
  // there and recovery must land on exactly the valid-prefix replay. The
  // step keeps runtime sane while hitting offsets inside headers, payloads
  // and CRCs; the last few bytes are covered explicitly.
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < journal.size(); cut += 211) cuts.push_back(cut);
  for (size_t back = 1; back <= 3; ++back) cuts.push_back(journal.size() - back);
  for (const size_t cut : cuts) {
    {
      std::FILE* f = std::fopen(store.JournalPath().c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(journal.data(), 1, cut, f), cut);
      std::fclose(f);
    }
    ExpectRecoveryEqualsSerialReplay(dir, d);
  }
  std::system(("rm -rf " + dir).c_str());
}

// A write whose payload width is not the table's must die before it is
// journaled: a journaled bad row would abort every later Open on replay.
TEST(Recovery, MisSizedPayloadNeverReachesTheJournal) {
  const TableData d = MakeData();
  const std::vector<Row> committed = {{41, {123, 164}}, {42, {126, 168}}};
  const std::vector<std::pair<const char*, std::function<void(CasperEngine&)>>>
      bad_writes = {
          {"short Insert", [](CasperEngine& e) { e.Insert(7, {21}); }},
          {"long Insert", [](CasperEngine& e) { e.Insert(7, {21, 28, 35}); }},
          {"InsertRows, first row short",
           [](CasperEngine& e) { e.InsertRows({{7, {21}}, {8, {24, 32}}}); }},
          {"InsertRows, later row short",
           [](CasperEngine& e) { e.InsertRows({{7, {21, 28}}, {8, {24}}}); }},
      };
  int tag = 0;
  for (const auto& [name, bad_write] : bad_writes) {
    SCOPED_TRACE(name);
    const std::string dir = FreshDir("missized_" + std::to_string(tag++));
    CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
    ref.InsertRows(committed);
    ref.Insert(43, {129, 172});
    {
      CasperEngine e = CasperEngine::Open(BaseOptions(d, dir));
      e.InsertRows(committed);
      e.Insert(43, {129, 172});
    }
    EngineOptions recover = BaseOptions(d, dir);
    recover.keys.clear();
    recover.payload.clear();

    const int bad = RunInChild([&] {
      CasperEngine e = CasperEngine::Open(recover);
      bad_write(e);
    });
    EXPECT_FALSE(WIFEXITED(bad) && WEXITSTATUS(bad) == 0)
        << "the mis-sized write was accepted";
    // Re-open in a child first, so a replay abort fails this test rather
    // than the whole binary.
    const int reopen = RunInChild([&] { CasperEngine::Open(recover); });
    const bool reopens = WIFEXITED(reopen) && WEXITSTATUS(reopen) == 0;
    EXPECT_TRUE(reopens) << "re-open after the mis-sized write aborted";
    if (reopens) {
      EXPECT_EQ(JournalRecordCount(dir), 2u);
      CasperEngine r = CasperEngine::Open(recover);
      ExpectSameAnswers(r, ref, 61, 40);
    }
    std::system(("rm -rf " + dir).c_str());
  }
}

// ---- (4) Memory-budgeted tiering -------------------------------------------

TEST(TierManager, EnforcesBudgetAndKeepsHotChunksResident) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("tier_budget");
  EngineOptions o = BaseOptions(d, dir);
  {
    // Learn the unbudgeted footprint from a throwaway in-memory engine, then
    // budget roughly a quarter of it (with headroom for the hot chunks).
    CasperEngine full = CasperEngine::Open(BaseOptions(d, ""));
    PartitionedTable& probe = TableOf(full);
    size_t total = 0;
    for (size_t c = 0; c < probe.num_chunks(); ++c) {
      total += probe.ChunkMemoryBytes(c);
    }
    o.persist.memory_budget_bytes = static_cast<int64_t>(total / 3);
  }
  const int64_t budget = *o.persist.memory_budget_bytes;
  CasperEngine e = CasperEngine::Open(std::move(o));
  ASSERT_NE(e.tier(), nullptr);
  PartitionedTable& table = TableOf(e);

  // Concentrate reads on the low quarter of the domain: those chunks are the
  // hot set, everything else is demotion fodder. Enough reads per cycle to
  // lift the hot chunks' heat past the promotion threshold (256).
  const Value hot_hi = kDomain / 4;
  auto hammer = [&] {
    for (int i = 0; i < 200; ++i) {
      (void)e.CountBetween(i % 100, hot_hi - i % 100);
    }
  };
  hammer();
  persist::TierCycleReport rep = e.tier()->RunCycle();  // absorb baseline heat
  for (int cycle = 0; cycle < 6; ++cycle) {
    hammer();
    rep = e.tier()->RunCycle();
  }
  EXPECT_LE(rep.resident_bytes, static_cast<size_t>(budget));
  EXPECT_GT(e.layout().StatsSnapshots().Totals().evictions, 0u);
  // The chunk holding the hottest keys must still be resident.
  EXPECT_TRUE(table.ChunkResident(0));

  // Queries remain correct across the whole domain (cold chunks read back
  // through the chunk files).
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
  ExpectSameAnswers(e, ref, 61, 60);
  std::system(("rm -rf " + dir).c_str());
}

TEST(TierManager, PromotesChunksThatGetHot) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("tier_promote");
  EngineOptions o = BaseOptions(d, dir);
  o.persist.memory_budget_bytes = int64_t{1} << 40;  // roomy: promotion free
  CasperEngine e = CasperEngine::Open(std::move(o));
  PartitionedTable& table = TableOf(e);
  const persist::StoreLayout store(dir);

  // Manually demote every chunk, then hammer one key range past the
  // promotion threshold (256); the tier cycle must bring the hot chunks back
  // while the rest stay cold.
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    ASSERT_TRUE(table.EvictChunk(c, store.TierChunkPath(c)));
  }
  e.tier()->RunCycle();  // absorb eviction-time counters as baseline
  for (int i = 0; i < 1600; ++i) {
    (void)e.CountBetween(0, kDomain / 8);
  }
  const persist::TierCycleReport rep = e.tier()->RunCycle();
  EXPECT_GT(rep.promotions, 0u);
  EXPECT_TRUE(table.ChunkResident(0));
  size_t resident = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    resident += table.ChunkResident(c);
  }
  EXPECT_LT(resident, table.num_chunks());  // cold tail stayed on disk
  std::system(("rm -rf " + dir).c_str());
}

TEST(TierManager, PromotionDisplacesColderResidentChunks) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("tier_displace");
  EngineOptions o = BaseOptions(d, dir);
  {
    CasperEngine full = CasperEngine::Open(BaseOptions(d, ""));
    PartitionedTable& probe = TableOf(full);
    size_t total = 0;
    for (size_t c = 0; c < probe.num_chunks(); ++c) {
      total += probe.ChunkMemoryBytes(c);
    }
    o.persist.memory_budget_bytes = static_cast<int64_t>(total / 3);
  }
  const int64_t budget = *o.persist.memory_budget_bytes;
  CasperEngine e = CasperEngine::Open(std::move(o));
  PartitionedTable& table = TableOf(e);
  const size_t last = table.num_chunks() - 1;

  // Phase 1: the low domain is hot; the budget settles on those chunks.
  // Each phase reads enough per cycle to cross the promotion threshold (256).
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 200; ++i) (void)e.CountBetween(0, kDomain / 4);
    e.tier()->RunCycle();
  }
  ASSERT_TRUE(table.ChunkResident(0));
  ASSERT_FALSE(table.ChunkResident(last));

  // Phase 2: the hot set moves to the high domain. The budget stays full, so
  // the only way in is displacing the now-cold low chunks.
  persist::TierCycleReport rep{};
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 200; ++i) {
      (void)e.CountBetween(kDomain - kDomain / 4, kDomain);
    }
    rep = e.tier()->RunCycle();
  }
  EXPECT_TRUE(table.ChunkResident(last));
  EXPECT_FALSE(table.ChunkResident(0));
  EXPECT_LE(rep.resident_bytes, static_cast<size_t>(budget));
  std::system(("rm -rf " + dir).c_str());
}

TEST(TierManager, RidesTheMaintenanceCycle) {
  const TableData d = MakeData();
  const std::string dir = FreshDir("tier_maint");
  EngineOptions o = BaseOptions(d, dir);
  o.persist.memory_budget_bytes = 1;  // everything over budget
  o.maintenance.enabled = true;
  o.maintenance.background = false;  // deterministic foreground cycles
  CasperEngine e = CasperEngine::Open(std::move(o));
  ASSERT_NE(e.maintenance(), nullptr);
  ASSERT_NE(e.tier(), nullptr);

  e.maintenance()->RunCycle();  // hook runs even though the noise gate skips
  e.maintenance()->RunCycle();
  PartitionedTable& table = TableOf(e);
  size_t resident = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    resident += table.ChunkResident(c);
  }
  EXPECT_EQ(resident, 0u);  // budget of 1 byte: every chunk demoted
  CasperEngine ref = CasperEngine::Open(BaseOptions(d, ""));
  ExpectSameAnswers(e, ref, 67, 40);
  std::system(("rm -rf " + dir).c_str());
}


// ---- (5) One partition walk across hot and cold chunks ---------------------
//
// The same fixed-seed spec set and point lookups run on resident chunks (hot)
// and on evicted chunks (cold). Every answer must equal brute force, and each
// shape's per-chunk counter delta is pinned exactly: the tier manager's heat
// reads these counters, so a refactor of the read paths must not move them.

constexpr size_t kTierChunkRows = 8192;
constexpr size_t kTierChunks = 3;
constexpr size_t kTierParts = 16;

struct TierData {
  std::vector<Value> keys;
  /// {0: quantity, 1: discount, 2: price}, the Q6 column convention.
  std::vector<std::vector<Payload>> payload;
};

TierData MakeTierData() {
  TierData d;
  Rng rng(2024);
  const size_t rows = kTierChunkRows * kTierChunks;
  d.payload.resize(3);
  for (size_t i = 0; i < rows; ++i) {
    const Value key = static_cast<Value>(4 * i + rng.Next() % 4);
    d.keys.push_back(key);
    d.payload[0].push_back(static_cast<Payload>((key * 7) % 50));
    // Discount follows the key, so partitions carry narrow discount zones
    // that payload predicates can prune or fully cover.
    d.payload[1].push_back(static_cast<Payload>((key / 1500) % 11));
    d.payload[2].push_back(static_cast<Payload>(1000 + (key * 31) % 9000));
  }
  return d;
}

PartitionedLayout MakeTierLayout(const TierData& d) {
  PartitionedTable::ChunkLayoutSpec spec;
  spec.partition_sizes.assign(kTierParts, kTierChunkRows / kTierParts);
  spec.ghosts.assign(kTierParts, 4);
  PartitionedTable::Options opts;
  opts.chunk_values = kTierChunkRows;
  return PartitionedLayout(
      LayoutMode::kEquiWidthGhost,
      PartitionedTable::Build(d.keys, d.payload,
                              std::vector<PartitionedTable::ChunkLayoutSpec>(
                                  kTierChunks, spec),
                              opts));
}

ScanPartial BruteForce(const TierData& d, const ScanSpec& spec) {
  ScanPartial out;
  for (size_t r = 0; r < d.keys.size(); ++r) {
    if (!spec.full_domain && (d.keys[r] < spec.lo || d.keys[r] >= spec.hi)) {
      continue;
    }
    bool keep = true;
    for (const PredicateSpec& p : spec.predicates) {
      const Payload v = d.payload[p.col][r];
      keep = keep && p.lo <= v && v <= p.hi;
    }
    if (!keep) continue;
    const auto col = [&](size_t i) { return d.payload[spec.agg.cols[i]][r]; };
    switch (spec.agg.kind) {
      case AggKind::kCount:
        ++out.count;
        break;
      case AggKind::kSum:
        for (const size_t c : spec.agg.cols) out.sum += d.payload[c][r];
        break;
      case AggKind::kSumProduct:
        out.sum += static_cast<uint64_t>(static_cast<int64_t>(col(0)) *
                                         static_cast<int64_t>(col(1)));
        break;
      case AggKind::kMin:
        out.min = std::min(out.min, col(0));
        ++out.count;
        break;
      case AggKind::kMax:
        out.max = std::max(out.max, col(0));
        ++out.count;
        break;
      case AggKind::kAvg:
        out.sum += col(0);
        ++out.count;
        break;
    }
  }
  return out;
}

struct TierShape {
  const char* name;
  std::vector<ScanSpec> specs;
  std::vector<Value> finds;  ///< point lookups, run after the specs
};

std::vector<TierShape> TierShapes() {
  const Value domain = static_cast<Value>(4 * kTierChunkRows * kTierChunks);
  Rng rng(77);
  const auto range = [&](Value* lo, Value* hi) {
    *lo = static_cast<Value>(rng.Next() % (domain + 100)) - 50;
    const Value widths[] = {300, 6000, domain};
    const Value width = widths[rng.Next() % 3];
    *hi = *lo + static_cast<Value>(rng.Next() % width) + 1;
  };
  std::vector<TierShape> shapes;
  const auto add = [&](const char* name, auto make, int n = 6) {
    TierShape s{name, {}, {}};
    for (int i = 0; i < n; ++i) {
      Value lo = 0, hi = 0;
      range(&lo, &hi);
      s.specs.push_back(make(lo, hi));
    }
    shapes.push_back(std::move(s));
  };
  add("count", [](Value lo, Value hi) { return ScanSpec::Count(lo, hi); });
  add("sum", [](Value lo, Value hi) { return ScanSpec::Sum(lo, hi, {0, 2}); });
  add(
      "q6",
      [&](Value lo, Value hi) {
        const Payload disc = static_cast<Payload>(rng.Next() % 11);
        return ScanSpec::Q6(lo, hi, disc, disc + 1,
                            static_cast<Payload>(rng.Next() % 50));
      },
      4);
  // Q6 edge shapes: discount outside every zone (each partition pruned),
  // predicates covering every zone (each predicate dropped), and the
  // quantity < 0 predicate that admits nothing.
  shapes.back().specs.push_back(ScanSpec::Q6(-50, domain + 50, 20, 30, 25));
  shapes.back().specs.push_back(ScanSpec::Q6(1000, domain - 1000, 0, 10, 50));
  shapes.back().specs.push_back(ScanSpec::Q6(0, domain, 0, 10, 0));
  add("min", [](Value lo, Value hi) { return ScanSpec::Min(lo, hi, 2); });
  add("max", [](Value lo, Value hi) { return ScanSpec::Max(lo, hi, 1); });
  add("avg", [](Value lo, Value hi) { return ScanSpec::Avg(lo, hi, 0); });
  ScanSpec full_sum = ScanSpec::Sum(0, 0, {2});
  full_sum.full_domain = true;
  shapes.push_back({"full", {ScanSpec::FullScan(), full_sum}, {}});
  shapes.push_back({"empty",
                    {ScanSpec::Count(5, 5), ScanSpec::Sum(10, 3, {0}),
                     ScanSpec::Q6(7, 7, 0, 10, 50), ScanSpec::Min(9, 9, 0)},
                    {}});
  return shapes;
}

/// Point lookups over TierData's unique keys: hits in every chunk, misses
/// inside a partition's zone map (a gap between two of its keys), and misses
/// outside every zone (below the domain, in the gap between two partitions,
/// above the domain).
TierShape FindShape(const TierData& d) {
  const size_t part = kTierChunkRows / kTierParts;
  const auto next_gap = [&](size_t r, bool at_boundary) {
    while ((r % part == part - 1) != at_boundary ||
           d.keys[r] + 1 == d.keys[r + 1]) {
      ++r;
    }
    return d.keys[r] + 1;
  };
  TierShape s{"find", {}, {}};
  for (const size_t r : {size_t{5}, size_t{3000}, kTierChunkRows + 700,
                         2 * kTierChunkRows + 4000}) {
    s.finds.push_back(d.keys[r]);
  }
  s.finds.push_back(next_gap(40, false));
  s.finds.push_back(next_gap(kTierChunkRows + 1234, false));
  s.finds.push_back(-7);
  s.finds.push_back(next_gap(2 * kTierChunkRows, true));
  s.finds.push_back(d.keys.back() + 100);
  return s;
}

/// The nonzero counters of one chunk's delta, e.g. "reads=12 scanned=3".
std::string DeltaString(const ChunkStatsSnapshot& a, const ChunkStatsSnapshot& b) {
  std::string out;
  const auto field = [&](const char* name, uint64_t before, uint64_t after) {
    if (after == before) return;
    if (!out.empty()) out += ' ';
    out += std::string(name) + '=' + std::to_string(after - before);
  };
  field("reads", a.element_reads, b.element_reads);
  field("writes", a.element_writes, b.element_writes);
  field("ripples", a.ripple_steps, b.ripple_steps);
  field("scanned", a.partitions_scanned, b.partitions_scanned);
  field("pruned", a.partitions_pruned, b.partitions_pruned);
  field("cscans", a.compressed_scans, b.compressed_scans);
  field("cpscans", a.compressed_payload_scans, b.compressed_payload_scans);
  field("ppruned", a.payload_partitions_pruned, b.payload_partitions_pruned);
  field("grows", a.grows, b.grows);
  field("evictions", a.evictions, b.evictions);
  field("promotions", a.promotions, b.promotions);
  field("disk_reads", a.disk_reads, b.disk_reads);
  field("disk_bytes", a.disk_bytes_read, b.disk_bytes_read);
  return out;
}

/// Runs one shape, checks every answer against brute force, and returns the
/// per-chunk counter deltas joined by " | ".
std::string RunShape(const PartitionedLayout& layout, const TierData& d,
                     const TierShape& shape, const char* tier) {
  const StatsSnapshotRegistry before = layout.StatsSnapshots();
  for (size_t i = 0; i < shape.specs.size(); ++i) {
    const ScanSpec& spec = shape.specs[i];
    const ScanPartial got = layout.ExecuteScan(spec);
    const ScanPartial want = BruteForce(d, spec);
    EXPECT_EQ(got.count, want.count) << tier << " " << shape.name << " #" << i;
    EXPECT_EQ(got.sum, want.sum) << tier << " " << shape.name << " #" << i;
    EXPECT_EQ(got.min, want.min) << tier << " " << shape.name << " #" << i;
    EXPECT_EQ(got.max, want.max) << tier << " " << shape.name << " #" << i;
  }
  for (const Value key : shape.finds) {
    std::vector<Payload> got;
    const size_t n = layout.PointLookup(key, &got);
    const auto it = std::lower_bound(d.keys.begin(), d.keys.end(), key);
    std::vector<Payload> want;
    if (it != d.keys.end() && *it == key) {
      for (const auto& col : d.payload) want.push_back(col[it - d.keys.begin()]);
    }
    EXPECT_EQ(n, want.empty() ? 0u : 1u) << tier << " find " << key;
    EXPECT_EQ(got, want) << tier << " find " << key;
  }
  const StatsSnapshotRegistry after = layout.StatsSnapshots();
  std::string out;
  for (size_t c = 0; c < after.per_chunk.size(); ++c) {
    if (c > 0) out += " | ";
    out += DeltaString(before.per_chunk[c], after.per_chunk[c]);
  }
  return out;
}

TEST(TierEquivalence, HotColdAnswersAndCounters) {
  const TierData d = MakeTierData();
  std::vector<TierShape> shapes = TierShapes();
  shapes.push_back(FindShape(d));
  struct Expected {
    const char* hot;
    const char* cold;
  };
  // Per-chunk counter deltas per shape and tier.
  const std::vector<Expected> expected = {
      // count
      {
          "reads=1536 scanned=3 | "
          "reads=512 scanned=1 | "
          "reads=1536 scanned=18",
          "reads=1536 scanned=3 cscans=2 disk_reads=2 disk_bytes=76048 | "
          "reads=512 scanned=1 cscans=1 disk_reads=1 disk_bytes=38024 | "
          "reads=1536 scanned=18 cscans=3 disk_reads=3 disk_bytes=114072"
      },
      // sum
      {
          " |  | ",
          " | "
          "reads=7680 cpscans=15 disk_reads=3 disk_bytes=114072 | "
          "reads=11776 cpscans=23 disk_reads=4 disk_bytes=152096"
      },
      // q6
      {
          " |  | ",
          "reads=9216 cpscans=18 ppruned=35 disk_reads=4 disk_bytes=152096 | "
          "reads=13824 cpscans=27 ppruned=48 disk_reads=5 disk_bytes=190120 | "
          "reads=14336 cpscans=28 ppruned=50 disk_reads=7 disk_bytes=266168"
      },
      // min
      {
          " |  | ",
          "reads=5120 cpscans=10 disk_reads=2 disk_bytes=76048 | "
          "reads=8192 cpscans=16 disk_reads=1 disk_bytes=38024 | "
          "reads=18944 cpscans=37 disk_reads=5 disk_bytes=190120"
      },
      // max
      {
          " |  | ",
          "reads=512 cpscans=1 disk_reads=1 disk_bytes=38024 | "
          "reads=7168 cpscans=14 disk_reads=3 disk_bytes=114072 | "
          "reads=14848 cpscans=29 disk_reads=3 disk_bytes=114072"
      },
      // avg
      {
          " |  | ",
          " | "
          "reads=6144 cpscans=12 disk_reads=4 disk_bytes=152096 | "
          "reads=3584 cpscans=7 disk_reads=3 disk_bytes=114072"
      },
      // full
      {
          "scanned=16 | "
          "scanned=16 | "
          "scanned=16",
          "reads=8192 scanned=16 cpscans=16 disk_reads=1 disk_bytes=38024 | "
          "reads=8192 scanned=16 cpscans=16 disk_reads=1 disk_bytes=38024 | "
          "reads=8192 scanned=16 cpscans=16 disk_reads=1 disk_bytes=38024"
      },
      // empty
      {
          " |  | ",
          " |  | "
      },
      // find: each cold row is its hot row plus one file read per lookup
      // that reads rows; a zone-pruned lookup reads no file.
      {
          "reads=1536 scanned=4 pruned=1 | "
          "reads=1024 scanned=2 | "
          "reads=512 scanned=3 pruned=2",
          "reads=1536 scanned=4 pruned=1 disk_reads=3 disk_bytes=114072 | "
          "reads=1024 scanned=2 disk_reads=2 disk_bytes=76048 | "
          "reads=512 scanned=3 pruned=2 disk_reads=1 disk_bytes=38024"
      },
  };
  ASSERT_EQ(expected.size(), shapes.size());

  // Hot: resident chunks scan their partitioned arrays.
  PartitionedLayout layout = MakeTierLayout(d);
  for (size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_EQ(RunShape(layout, d, shapes[s], "hot"), expected[s].hot)
        << "hot " << shapes[s].name;
  }

  // Cold: every chunk evicted to its tier file.
  const std::string dir = FreshDir("tier_equivalence");
  ASSERT_TRUE(persist::EnsureDir(dir).ok());
  PartitionedTable& table = layout.mutable_table();
  for (size_t c = 0; c < kTierChunks; ++c) {
    ASSERT_TRUE(
        table.EvictChunk(c, dir + "/chunk_" + std::to_string(c) + ".cspr"));
  }
  for (size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_EQ(RunShape(layout, d, shapes[s], "cold"), expected[s].cold)
        << "cold " << shapes[s].name;
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(TierEquivalenceDeathTest, TierFileOfAnotherChunkIsRefused) {
  // Reads pair a tier file's rows with the chunk's resident geometry, so a
  // file written for another chunk must be refused, not read. TierData's
  // chunks have equal partition sizes and caps: only the uppers differ.
  const TierData d = MakeTierData();
  PartitionedLayout layout = MakeTierLayout(d);
  PartitionedTable& table = layout.mutable_table();
  const std::string dir = FreshDir("tier_swap");
  ASSERT_TRUE(persist::EnsureDir(dir).ok());
  const std::string a = dir + "/chunk_0.cspr";
  const std::string b = dir + "/chunk_1.cspr";
  const std::string tmp = dir + "/swap.cspr";
  ASSERT_TRUE(table.EvictChunk(0, a));
  ASSERT_TRUE(table.EvictChunk(1, b));
  ASSERT_EQ(std::rename(a.c_str(), tmp.c_str()), 0);
  ASSERT_EQ(std::rename(b.c_str(), a.c_str()), 0);
  ASSERT_EQ(std::rename(tmp.c_str(), b.c_str()), 0);
  EXPECT_DEATH(layout.PointLookup(d.keys[400], nullptr), "does not match");
  EXPECT_DEATH(layout.ExecuteScan(ScanSpec::Count(d.keys[0], d.keys[100])),
               "does not match");
  EXPECT_DEATH(table.PromoteChunk(1), "does not match");
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace casper
