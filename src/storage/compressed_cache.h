#ifndef CASPER_STORAGE_COMPRESSED_CACHE_H_
#define CASPER_STORAGE_COMPRESSED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "storage/types.h"
#include "util/mutex.h"

namespace casper {

/// Per-partition min/max of one payload column — the payload-side zone map.
/// Computed for every column at encode time (even columns the advisor keeps
/// raw), so predicated scans can skip or blind-consume whole partitions
/// regardless of the physical encoding.
struct PayloadZone {
  Payload min = 0;
  Payload max = 0;
};

/// One cache entry: everything the read paths can precompute for a chunk at
/// one write epoch. The key frame (FoR over live keys, frames = partitions)
/// plus one optional packed column per payload column, the packed-space
/// prefix of live rows per partition (to map chunk partitions into packed
/// row positions), and per-column/per-partition payload zone maps.
struct ChunkEncoding {
  std::shared_ptr<const FrameOfReferenceColumn> keys;
  /// payload[c] is nullptr when the advisor kept column c raw.
  std::vector<std::shared_ptr<const PackedPayloadColumn>> payload;
  /// live_prefix[t] = live rows in partitions [0, t): the packed-space row
  /// position where partition t's values start. Size = partitions + 1.
  std::vector<size_t> live_prefix;
  /// payload_zones[c][t] = min/max of column c within partition t (live rows
  /// only; meaningless when the partition is empty). Empty when the chunk
  /// has no payload columns.
  std::vector<std::vector<PayloadZone>> payload_zones;

  /// The packed column for `col`, or nullptr when it stayed raw.
  const PackedPayloadColumn* packed(size_t col) const {
    return col < payload.size() ? payload[col].get() : nullptr;
  }

  /// The payoff-gate statistic: the cache keys the whole snapshot on the key
  /// column's compressibility (payload columns apply their own central gate
  /// inside the encoding advisor before they are ever attached).
  double MeanBitsPerValue() const {
    return keys ? keys->MeanBitsPerValue() : 64.0;
  }

  size_t CompressedBytes() const {
    size_t bytes = keys ? keys->CompressedBytes() : 0;
    for (const auto& col : payload) {
      if (col) bytes += col->CompressedBytes();
    }
    bytes += live_prefix.size() * sizeof(size_t);
    for (const auto& zones : payload_zones) {
      bytes += zones.size() * sizeof(PayloadZone);
    }
    return bytes;
  }
};

/// Lazy per-chunk encodings for read-mostly chunks — the "compressed chunk
/// scan" side of the scan-kernel layer (paper §6.2: the partitioning /
/// compression synergy; ByteStore: base-layout kernel choice dominates
/// hybrid throughput). A cache entry is a ChunkEncoding snapshot: the FoR
/// key frame plus whatever per-column packed payloads the encoding advisor
/// chose, all invalidated together by the chunk's epoch/latch.
///
/// Policy:
///  - An encoding is built only after a chunk has been range-scanned
///    kBuildAfterScans times at one write epoch (a chunk that keeps taking
///    writes never pays the encode), and only if it actually compresses
///    (mean offset width <= kMaxMeanBits); otherwise the slot
///    remembers the rejection until the next write.
///  - Validity is tied to the chunk's epoch/latch (chunk_latch.h): callers
///    pass the latch's current even epoch while holding it shared, so a
///    cached encoding can never be observed across a write — any write
///    advances the epoch by two and lazily invalidates the slot on its next
///    access. No extra synchronization with writers is needed.
///  - Returned encodings are shared_ptr snapshots: a scan keeps its column
///    alive even if a later epoch rebuilds the slot.
///
/// Thread safety: any number of readers may call Get/GetOrBuild concurrently
/// (they hold the chunk latch shared). The hit path is lock-free — an atomic
/// epoch check plus an atomic shared_ptr load — because the shared latch
/// guarantees every concurrent caller passes the SAME epoch (a writer would
/// need the latch exclusive to change it), so cross-epoch races cannot
/// happen mid-query. The per-slot mutex serializes only epoch-rollover
/// resets and the encode itself: the winning reader builds while peers wait,
/// then everyone shares the same column.
class CompressedChunkCache {
 public:
  /// Range scans observed at one epoch before the encode is attempted.
  static constexpr size_t kBuildAfterScans = 8;
  /// Don't bother encoding chunks smaller than this.
  static constexpr size_t kMinRows = 4096;
  /// Reject encodings whose mean bits/value exceed this (< 2x compression
  /// vs the 64-bit raw column means the raw SIMD scan is the cheaper
  /// representation). Applied by GetOrBuild to whatever the encoder
  /// returns, so every caller shares one payoff gate.
  static constexpr double kMaxMeanBits = 32.0;
  /// Churn backoff cap: every time a BUILT encoding is invalidated by a
  /// write, the scan threshold for the next build doubles (up to
  /// kBuildAfterScans << kMaxChurnShift), so write-hot chunks stop paying
  /// O(chunk) encodes they never amortize. A genuinely read-mostly chunk
  /// reaches its (higher) threshold anyway; a hybrid chunk stops rebuilding
  /// after a couple of wasted encodes per workload lifetime.
  static constexpr unsigned kMaxChurnShift = 6;

  using EncodingPtr = std::shared_ptr<const ChunkEncoding>;

  CompressedChunkCache() = default;
  explicit CompressedChunkCache(size_t slots) { Reset(slots); }

  /// (Re)sizes the slot set; build-time only (not thread-safe).
  void Reset(size_t slots) {
    entries_.clear();
    entries_.reserve(slots);
    for (size_t i = 0; i < slots; ++i) {
      entries_.push_back(std::make_unique<Entry>());
    }
  }

  size_t num_slots() const { return entries_.size(); }

  /// Hit-only lookup: the cached encoding for `slot` if one is valid at
  /// `epoch`, nullptr otherwise — no scan accounting, no build, lock-free.
  /// For read paths that should consume an existing encoding without voting
  /// to create one (e.g. per-morsel shard scans, which would otherwise
  /// inflate the scan counter by the fan-out width every query).
  EncodingPtr Get(size_t slot, uint64_t epoch) const {
    const Entry& e = *entries_[slot];
    if (e.epoch.load(std::memory_order_acquire) != epoch) return nullptr;
    return std::atomic_load_explicit(&e.column, std::memory_order_acquire);
  }

  /// Cached encoding for `slot` if one is valid at `epoch`; otherwise counts
  /// this scan and, once the slot is hot enough, invokes `encode()` (which
  /// may return nullptr to veto). Encodings that fail the compression-payoff
  /// gate (kMaxMeanBits) are rejected here, once, for every caller.
  /// Callers must hold the slot's chunk latch shared and pass that latch's
  /// current (necessarily even) epoch. The hit path takes no lock.
  template <typename EncodeFn>
  EncodingPtr GetOrBuild(size_t slot, uint64_t epoch, size_t rows,
                         EncodeFn&& encode) {
    if (rows < kMinRows) return nullptr;
    Entry& e = *entries_[slot];
    if (e.epoch.load(std::memory_order_acquire) != epoch) {
      // A write advanced the chunk epoch since this slot last recorded one:
      // drop the stale state. Peers hold the chunk latch shared too, so they
      // carry the same `epoch`; the mutex only orders the reset among them.
      MutexLock lock(e.mu);
      if (e.epoch.load(std::memory_order_relaxed) != epoch) {
        // An encode we paid for and never got to keep: back off (double the
        // threshold) so chunks that keep taking writes stop rebuilding.
        if (std::atomic_load_explicit(&e.column, std::memory_order_relaxed) !=
                nullptr &&
            e.churn.load(std::memory_order_relaxed) < kMaxChurnShift) {
          e.churn.fetch_add(1, std::memory_order_relaxed);
        }
        std::atomic_store_explicit(&e.column, EncodingPtr(),
                                   std::memory_order_release);
        e.rejected.store(false, std::memory_order_relaxed);
        e.scans.store(0, std::memory_order_relaxed);
        e.epoch.store(epoch, std::memory_order_release);  // publish last
      }
    }
    if (EncodingPtr col =
            std::atomic_load_explicit(&e.column, std::memory_order_acquire)) {
      return col;  // lock-free hit
    }
    if (e.rejected.load(std::memory_order_relaxed)) return nullptr;
    const size_t threshold = kBuildAfterScans
                             << e.churn.load(std::memory_order_relaxed);
    if (e.scans.fetch_add(1, std::memory_order_relaxed) + 1 < threshold) {
      return nullptr;
    }
    MutexLock lock(e.mu);
    if (EncodingPtr col =
            std::atomic_load_explicit(&e.column, std::memory_order_acquire)) {
      return col;  // a peer built it while we waited
    }
    if (e.rejected.load(std::memory_order_relaxed)) return nullptr;
    EncodingPtr built = encode();
    if (built != nullptr && built->MeanBitsPerValue() > kMaxMeanBits) {
      built = nullptr;  // doesn't compress: raw SIMD scan stays cheaper
    }
    if (built == nullptr) {
      e.rejected.store(true, std::memory_order_relaxed);
      return nullptr;
    }
    // The encode ran outside the chunk latch's exclusive side only because
    // callers hold it shared — but callers that release and re-acquire the
    // latch around GetOrBuild (or encoders that read unlatched state) could
    // race a write. Re-check the slot's epoch before publishing: if a write
    // advanced it mid-encode, the snapshot may be torn, so neither publish
    // nor serve it.
    if (e.epoch.load(std::memory_order_acquire) != epoch) return nullptr;
    std::atomic_store_explicit(&e.column, built, std::memory_order_release);
    return built;
  }

  /// Drops one slot's cached encoding and state (tiered storage: an evicted
  /// chunk stops consulting the cache entirely, so without this its last
  /// encoding would hold memory until the slot is next touched — the
  /// opposite of what eviction is for).
  void Invalidate(size_t slot) {
    Entry& e = *entries_[slot];
    MutexLock lock(e.mu);
    std::atomic_store_explicit(&e.column, EncodingPtr(),
                               std::memory_order_release);
    e.scans.store(0, std::memory_order_relaxed);
    e.rejected.store(false, std::memory_order_relaxed);
    e.epoch.store(kNoEpoch, std::memory_order_release);
  }

  /// Drops every cached encoding (memory pressure / tests).
  void Clear() {
    for (auto& e : entries_) {
      MutexLock lock(e->mu);
      std::atomic_store_explicit(&e->column, EncodingPtr(),
                                 std::memory_order_release);
      e->scans.store(0, std::memory_order_relaxed);
      e->churn.store(0, std::memory_order_relaxed);
      e->rejected.store(false, std::memory_order_relaxed);
      e->epoch.store(kNoEpoch, std::memory_order_release);
    }
  }

  /// Bytes held by live encodings (memory-amplification reporting).
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& e : entries_) {
      if (const EncodingPtr col = std::atomic_load_explicit(
              &e->column, std::memory_order_acquire)) {
        bytes += col->CompressedBytes();
      }
    }
    return bytes;
  }

  /// True when `slot` currently holds a live encoding (test hook).
  bool HasEncoding(size_t slot) const {
    return std::atomic_load_explicit(&entries_[slot]->column,
                                     std::memory_order_acquire) != nullptr;
  }

 private:
  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  struct Entry {
    std::atomic<uint64_t> epoch{kNoEpoch};
    std::atomic<uint32_t> scans{0};
    /// Builds lost to writes; left-shifts the scan threshold (backoff).
    std::atomic<unsigned> churn{0};
    std::atomic<bool> rejected{false};
    /// Build/reset serialization only; hits bypass it. No field is
    /// GUARDED_BY(mu): every one is an atomic that the hit path reads
    /// lock-free BY DESIGN — validity comes from the epoch protocol (callers
    /// hold the chunk latch shared, so all concurrent callers carry the same
    /// epoch), not from mutual exclusion. The capability wrapper still lets
    /// the analysis check the build/reset sections for double-lock and
    /// leaked holds. `column` is accessed through the std::atomic_load/store
    /// shared_ptr free functions.
    mutable Mutex mu;
    EncodingPtr column;
  };

  // unique_ptr keeps the owning table movable (Entry holds a mutex).
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace casper

#endif  // CASPER_STORAGE_COMPRESSED_CACHE_H_
