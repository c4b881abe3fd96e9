#ifndef CASPER_STORAGE_CHUNK_LATCH_H_
#define CASPER_STORAGE_CHUNK_LATCH_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <shared_mutex>

#include "util/cpu_relax.h"
#include "util/thread_annotations.h"

namespace casper {

/// Per-chunk concurrency control: a shared/exclusive latch fused with a
/// seqlock-style epoch counter. This is the protection layer that lets read
/// queries overlap ingest (paper's hybrid premise — reads and writes arrive
/// interleaved) instead of requiring a quiescent engine:
///
/// - Readers take the latch shared; any number may hold it at once.
/// - Writers take it exclusive and advance the epoch twice: to an odd value
///   on entry, back to even on exit. The epoch is therefore odd exactly
///   while a writer is inside the chunk.
/// - Snapshots compare epochs to tell whether a writer entered a chunk
///   between two points (see exec/chunk_snapshot.h).
/// - Seqlock reads over atomic payloads (e.g. ChunkStats' relaxed counters)
///   use `ReadBegin()` / `ReadValidate()` to obtain a copy that is coherent
///   with respect to writers, without ever touching the mutex.
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
/// that contract into build errors. The epoch/seqlock side is deliberately
/// outside the capability: `Epoch`/`WriteActive`/`ReadBegin`/`ReadValidate`
/// are latch-free by design and carry no annotations.
class CAPABILITY("chunk latch") ChunkLatch {
 public:
  ChunkLatch() = default;
  ChunkLatch(const ChunkLatch&) = delete;
  ChunkLatch& operator=(const ChunkLatch&) = delete;

  // --- Writer side ----------------------------------------------------------

  void LockExclusive() ACQUIRE() {
    mu_.lock();
    // even -> odd: writer in. The release fence orders the odd increment
    // before the writer's payload stores (Boehm-style seqlock writer entry):
    // a reader that observes any of those stores and then issues its own
    // acquire fence (ReadValidate) is guaranteed to see the odd epoch.
    epoch_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void UnlockExclusive() RELEASE() {
    // odd -> even: writer out. The release increment orders every payload
    // store before the even value, so a reader whose ReadBegin acquires the
    // new even epoch sees the completed write.
    epoch_.fetch_add(1, std::memory_order_release);
    mu_.unlock();
  }

  // --- Reader side ----------------------------------------------------------

  void LockShared() const ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() const RELEASE_SHARED() { mu_.unlock_shared(); }

  // --- Capability assertions ------------------------------------------------
  //
  // Escape hatches for contracts the static analysis cannot follow — e.g. a
  // compression callback invoked by a helper whose caller took the latch, or
  // a bench/test hook documented as quiescent-only. Each asserts the
  // capability to the analysis AND runtime-checks the strongest necessary
  // condition the latch can observe about itself (a std::shared_mutex cannot
  // name its holders, but the fused epoch knows whether a writer is inside).

  /// Caller claims a shared (or stronger) hold: no writer can be inside, so
  /// the epoch must be even.
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {
    if (WriteActive()) std::abort();
  }
  /// Caller claims the exclusive hold: it advanced the epoch to odd on entry.
  void AssertWriterHeld() const ASSERT_CAPABILITY(this) {
    if (!WriteActive()) std::abort();
  }
  /// Caller claims nobody else can touch the chunk at all (single-threaded
  /// test/bench hooks that mutate without latching). Grants the exclusive
  /// capability to the analysis; at runtime the latch can only verify the
  /// necessary condition that no latched writer is mid-flight.
  void AssertQuiescent() const ASSERT_CAPABILITY(this) {
    if (WriteActive()) std::abort();
  }

  // --- Epoch / seqlock protocol --------------------------------------------

  /// Current epoch; odd while an exclusive writer is inside.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }
  bool WriteActive() const { return (Epoch() & 1) != 0; }

  /// Seqlock read entry over *atomic* payloads: returns the first even epoch
  /// observed (spinning past any in-flight writer). The caller copies the
  /// payload, then confirms with ReadValidate; on failure, retry.
  uint64_t ReadBegin() const {
    for (;;) {
      const uint64_t e = Epoch();
      if ((e & 1) == 0) return e;
      // Writer in flight: pause instead of hammering the epoch line — the
      // pause hint stops the load loop from flooding the core and gives a
      // hyperthread-sibling writer the execution resources to finish sooner.
      CpuRelax();
    }
  }
  /// True when no writer entered since ReadBegin returned `epoch` — the copy
  /// taken in between is coherent with respect to writers. The acquire fence
  /// pairs with the writer-entry release fence: if any payload load observed
  /// a mid-write value, the epoch load below is guaranteed to see the odd
  /// epoch and fail validation.
  bool ReadValidate(uint64_t epoch) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return epoch_.load(std::memory_order_relaxed) == epoch;
  }

 private:
  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{0};
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

/// RAII exclusive (write) hold on a chunk latch; advances the epoch.
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
