#ifndef CASPER_EXEC_CHUNK_SNAPSHOT_H_
#define CASPER_EXEC_CHUNK_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace casper {

class LayoutEngine;

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

/// Chunk-granular snapshot over the storage layer's epoch/latch protection
/// (storage/chunk_latch.h): captures one oracle timestamp plus the epoch of
/// every latch domain of a layout engine. Validate() succeeds iff no writer
/// committed into *any* captured domain since. The mixed-workload runner and
/// tests use it to prove read-only phases really were write-free and to
/// detect which chunks an ingest touched.
class ChunkSnapshot {
 public:
  /// Samples every domain epoch (spinning past in-flight writers so each
  /// captured epoch is even == stable). `oracle` may be nullptr; then the
  /// snapshot carries timestamp 0.
  static ChunkSnapshot Capture(const LayoutEngine& engine,
                               TimestampOracle* oracle = nullptr);

  /// True iff every domain epoch is unchanged since Capture().
  bool Validate(const LayoutEngine& engine) const;

  /// Indices of domains whose epoch advanced since Capture() — the chunks a
  /// concurrent ingest wrote.
  std::vector<size_t> ChangedDomains(const LayoutEngine& engine) const;

  uint64_t timestamp() const { return ts_; }
  size_t num_domains() const { return epochs_.size(); }

 private:
  uint64_t ts_ = 0;
  std::vector<uint64_t> epochs_;
};

}  // namespace casper

#endif  // CASPER_EXEC_CHUNK_SNAPSHOT_H_
