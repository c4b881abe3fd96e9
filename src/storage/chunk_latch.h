#ifndef CASPER_STORAGE_CHUNK_LATCH_H_
#define CASPER_STORAGE_CHUNK_LATCH_H_

#include <cstddef>
#include <cstdlib>
#include <shared_mutex>

#include "storage/types.h"
#include "util/thread_annotations.h"

namespace casper {

/// Per-chunk concurrency control: a shared/exclusive latch. This is the
/// protection layer that lets read queries overlap ingest (paper's hybrid
/// premise — reads and writes arrive interleaved) instead of requiring a
/// quiescent engine:
///
/// - Readers take the latch shared; any number may hold it at once.
/// - Writers take it exclusive and raise a writer flag for as long as they
///   hold it, so the latch can tell whether a writer is inside.
///
/// Chunk-disjoint write runs each hold only their own chunk's latch, so
/// multi-writer ingest commits in parallel; writers touching the same chunk
/// serialize on it. Lock ordering rule for multi-chunk writers (cross-chunk
/// updates): acquire in ascending chunk index, so no cycle can form —
/// enforced at the acquisition sites via `AssertLatchOrdered`.
///
/// The latch is a Thread Safety Analysis *capability*: data it protects is
/// declared `GUARDED_BY` it, internals that assume it are `REQUIRES`-
/// annotated, and the clang CI leg (`-DCASPER_TSA=ON`) turns violations of
/// that contract into build errors.
class CAPABILITY("chunk latch") ChunkLatch {
 public:
  ChunkLatch() = default;
  ChunkLatch(const ChunkLatch&) = delete;
  ChunkLatch& operator=(const ChunkLatch&) = delete;

  // --- Writer side ----------------------------------------------------------

  void LockExclusive() ACQUIRE() {
    mu_.lock();
    writer_ = 1;
  }
  void UnlockExclusive() RELEASE() {
    writer_ = 0;
    mu_.unlock();
  }

  // --- Reader side ----------------------------------------------------------

  void LockShared() const ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() const RELEASE_SHARED() { mu_.unlock_shared(); }

  // --- Capability assertions ------------------------------------------------
  //
  // Escape hatches for contracts the static analysis cannot follow — e.g. a
  // callback invoked by a helper whose caller took the latch, or a
  // bench/test hook documented as quiescent-only. Each asserts the
  // capability to the analysis AND runtime-checks the strongest necessary
  // condition the latch can observe about itself (a std::shared_mutex cannot
  // name its holders, but the writer flag tells whether a writer is inside).

  /// Caller claims a shared (or stronger) hold: no writer can be inside.
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {
    if (writer_.load() != 0) std::abort();
  }
  /// Caller claims nobody else can touch the chunk at all (single-threaded
  /// test/bench hooks that mutate without latching). Grants the exclusive
  /// capability to the analysis; at runtime the latch can only verify the
  /// necessary condition that no latched writer is mid-flight.
  void AssertQuiescent() const ASSERT_CAPABILITY(this) {
    if (writer_.load() != 0) std::abort();
  }

 private:
  mutable std::shared_mutex mu_;
  /// 1 while an exclusive holder is inside. Relaxed: it orders nothing and
  /// only feeds the fail-fast checks above.
  RelaxedCounter writer_;
};

namespace internal {
[[noreturn]] inline void LatchOrderViolation() { std::abort(); }
}  // namespace internal

/// Guards the cross-chunk lock-ordering invariant: a writer about to hold two
/// chunk latches at once must acquire them in ascending chunk index (so no
/// acquisition cycle can form between concurrent multi-chunk writers). Call
/// with the two indices in intended acquisition order BEFORE taking the
/// second latch. Deliberately `constexpr`: in a constant-evaluated context a
/// descending pair is a compile error (the tsa_negative suite relies on
/// this), at runtime it fail-fasts.
constexpr void AssertLatchOrdered(size_t first, size_t second) {
  if (first >= second) internal::LatchOrderViolation();
}

/// RAII shared (read) hold on a chunk latch.
class SCOPED_CAPABILITY SharedChunkGuard {
 public:
  explicit SharedChunkGuard(const ChunkLatch& latch) ACQUIRE_SHARED(latch)
      : latch_(latch) {
    latch_.LockShared();
  }
  // Generic (mode-agnostic) release: scoped-capability destructors release
  // whichever mode the constructor acquired.
  ~SharedChunkGuard() RELEASE_GENERIC() { latch_.UnlockShared(); }
  SharedChunkGuard(const SharedChunkGuard&) = delete;
  SharedChunkGuard& operator=(const SharedChunkGuard&) = delete;

 private:
  const ChunkLatch& latch_;
};

/// RAII exclusive (write) hold on a chunk latch.
class SCOPED_CAPABILITY ExclusiveChunkGuard {
 public:
  explicit ExclusiveChunkGuard(ChunkLatch& latch) ACQUIRE(latch)
      : latch_(latch) {
    latch_.LockExclusive();
  }
  ~ExclusiveChunkGuard() RELEASE_GENERIC() { latch_.UnlockExclusive(); }
  ExclusiveChunkGuard(const ExclusiveChunkGuard&) = delete;
  ExclusiveChunkGuard& operator=(const ExclusiveChunkGuard&) = delete;

 private:
  ChunkLatch& latch_;
};

}  // namespace casper

#endif  // CASPER_STORAGE_CHUNK_LATCH_H_
