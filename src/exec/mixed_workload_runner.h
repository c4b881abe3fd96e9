#ifndef CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
#define CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/chunk_snapshot.h"
#include "exec/scan_spec.h"
#include "layouts/layout_engine.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

class ThreadPool;

/// Outcome of a mixed (read + write) admission run. Aggregates use the same
/// mixing as HarnessResult::checksum, so a mixed run can be checked
/// bit-identical against a single-threaded serial replay of the same stream.
struct MixedResult {
  /// Per-operation results for the read kinds: results[i] is exactly what
  /// the serial harness computes for ops[i] (match count / row count /
  /// static_cast<uint64_t>(sum)). Write kinds leave 0 here; their effects
  /// are in the aggregates below.
  std::vector<uint64_t> results;
  size_t inserts = 0;   ///< rows inserted
  size_t deletes = 0;   ///< rows actually deleted
  size_t updates = 0;   ///< updates that found their key
  /// sum(read results) + deletes + updates — HarnessResult::checksum of the
  /// serial replay of the same stream (key-derived payloads).
  uint64_t checksum = 0;
  /// Highest commit timestamp stamped on a write run (0 without an oracle).
  uint64_t last_commit_ts = 0;
  /// For a read-only stream: true iff no *external* writer advanced any
  /// chunk epoch during the run (ChunkSnapshot validation) — i.e. the
  /// results are serial-equivalent, not merely bounded-stale. Streams with
  /// writes are always serial-equivalent (the DAG orders conflicts) and
  /// report true.
  bool quiescent = true;
};

/// The engine's one multi-operation scheduler (paper §6.3: column chunks are
/// independent units for execution as much as for layout solving). It admits
/// any operation stream — point and range reads, write runs, or both — and
/// overlaps items wherever the epoch/latch domains say they cannot conflict,
/// while keeping every result deterministic and serial-equivalent. A
/// read-only stream is the special case with no write items: every read
/// overlaps every other.
///
/// How: the stream is split into items — each read query is one item, each
/// maximal run of consecutive writes is one item — and each item's latch
/// *footprint* (the domains it touches: routed chunks for writes, range-
/// overlapping chunks for reads) is computed from the immutable routing
/// bounds. Items are then executed as a dependency DAG: per domain, a read
/// depends on the last write before it and a write depends on every read
/// since the previous write — exactly the shared/exclusive compatibility of
/// the chunk latches, lifted to stream order. Conflicting items therefore
/// run in stream order; disjoint items run concurrently. Results are
/// bit-identical to a single-threaded serial replay because conflicting
/// operations never reorder and disjoint operations commute.
///
/// Within a read item, range queries fan over the engine's shards with
/// epoch-based deferral (validate-and-retry instead of blocking): shards
/// whose latch domain currently hosts a writer — possible when other runners
/// or direct writers share the engine — are skipped on the first pass and
/// retried after the others, and partials merge in shard order.
///
/// Write items commit through the engine's grouped ApplyBatch under the
/// per-chunk exclusive latches, so chunk-disjoint write runs from different
/// items commit in parallel (multi-writer ingest). When a TimestampOracle is
/// attached, each write item is stamped with a commit timestamp on
/// completion (MixedResult::last_commit_ts reports the highest).
class MixedWorkloadRunner {
 public:
  explicit MixedWorkloadRunner(ThreadPool* pool = nullptr,
                               TimestampOracle* oracle = nullptr)
      : pool_(pool), oracle_(oracle) {}

  /// Executes the mixed stream. Admissible kinds: all of them — the point
  /// and range reads (count/sum/min/max/avg as ScanSpecs) overlap; writes
  /// are grouped into runs. A null pool or single worker degrades to a
  /// serial replay with identical results.
  MixedResult Run(LayoutEngine& engine, const std::vector<Operation>& ops,
                  const std::vector<size_t>& sum_cols) const;

  /// Same, summing over DefaultSumColumns(engine) for range sums.
  MixedResult Run(LayoutEngine& engine, const std::vector<Operation>& ops) const;

  ThreadPool* pool() const { return pool_; }
  TimestampOracle* oracle() const { return oracle_; }

 private:
  ThreadPool* pool_;
  TimestampOracle* oracle_;
};

/// Shard fan-out of one ScanSpec with epoch-based deferral: shards whose
/// latch domain currently has an exclusive writer (odd epoch) are deferred
/// to a second pass instead of blocking on the latch; partials merge in
/// shard order, so the answer equals ExecuteScan(spec) whenever no
/// conflicting writer overlaps the call (the mixed runner's DAG guarantees
/// that).
ScanPartial ExecuteScanDeferred(const LayoutEngine& engine, const ScanSpec& spec);

/// Morsel-driven fan-out of one ScanSpec over the engine's shards on `pool`,
/// merging the per-shard partials in shard order — bit-identical to
/// engine.ExecuteScan(spec) for any thread count, because ScanPartial merging
/// is associative. A null pool or a single worker runs the engine's
/// whole-scan path instead (one latch hold, whole-column windows where the
/// layout provides them).
ScanPartial ExecuteScanOnPool(const LayoutEngine& engine, const ScanSpec& spec,
                              ThreadPool* pool);

}  // namespace casper

#endif  // CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
