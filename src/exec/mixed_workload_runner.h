#ifndef CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
#define CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/scan_spec.h"
#include "layouts/partitioned.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

class ThreadPool;

/// Monotonic commit-timestamp source. Timestamps are a relaxed counter:
/// each caller needs a distinct value, but ordering with surrounding data
/// comes from the chunk latches, not from the oracle.
class TimestampOracle {
 public:
  uint64_t Next() { return next_.FetchAdd(1); }
  uint64_t Current() const { return next_.load() - 1; }

 private:
  RelaxedCounter next_{1};
};

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
};

/// The engine's one multi-operation scheduler (paper §6.3: column chunks are
/// independent units for execution as much as for layout solving). It admits
/// any operation stream — point and range reads, write runs, or both — and
/// overlaps items wherever their chunk footprints say they cannot conflict,
/// while keeping every result deterministic and serial-equivalent. A
/// read-only stream is the special case with no write items: every read
/// overlaps every other.
///
/// How: the stream is split into items — each read query is one item, each
/// maximal run of consecutive writes is one item — and each item's
/// *footprint* (the column chunks it touches: routed chunks for writes, the
/// window of range-overlapping chunks for reads) is computed from the
/// immutable chunk routing bounds. Items are then executed as a dependency
/// DAG: per chunk, a read depends on the last write before it and a write
/// depends on every read since the previous write — exactly the
/// shared/exclusive compatibility of the chunk latches, lifted to stream
/// order. Conflicting items therefore run in stream order; disjoint items
/// run concurrently. Results are bit-identical to a single-threaded serial
/// replay because conflicting operations never reorder and disjoint
/// operations commute.
///
/// A read item is one ExecuteScan (or PointLookup): items, not chunks, are
/// the unit of overlap, and the DAG already orders every read after the
/// writes to its chunks. A writer outside the runner that shares the engine
/// only blocks a chunk on its latch; each chunk is still read under one
/// latch hold.
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
  MixedResult Run(PartitionedLayout& engine, const std::vector<Operation>& ops,
                  const std::vector<size_t>& sum_cols) const;

  /// Same, summing over DefaultSumColumns(engine) for range sums.
  MixedResult Run(PartitionedLayout& engine,
                  const std::vector<Operation>& ops) const;

  ThreadPool* pool() const { return pool_; }
  TimestampOracle* oracle() const { return oracle_; }

 private:
  ThreadPool* pool_;
  TimestampOracle* oracle_;
};

/// Morsel-driven fan-out of one ScanSpec over the engine's chunks on `pool`,
/// merging the per-chunk partials in chunk order — bit-identical to
/// engine.ExecuteScan(spec) for any thread count, because ScanPartial merging
/// is associative. A null pool or a single worker runs
/// engine.ExecuteScan(spec) on the calling thread.
ScanPartial ExecuteScanOnPool(const PartitionedLayout& engine, const ScanSpec& spec,
                              ThreadPool* pool);

}  // namespace casper

#endif  // CASPER_EXEC_MIXED_WORKLOAD_RUNNER_H_
