#ifndef CASPER_PERSIST_DURABLE_STORE_H_
#define CASPER_PERSIST_DURABLE_STORE_H_

#include <cstdint>
#include <vector>

#include "persist/journal.h"
#include "persist/manifest.h"
#include "persist/store.h"
#include "storage/table.h"
#include "storage/types.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "workload/ops.h"

namespace casper {
namespace persist {

/// The engine's handle on its durable state: owns the store layout and the
/// write-ahead journal. The facade commits every write through CommitOps /
/// CommitRows: the journal record is appended BEFORE the write applies
/// (write-ahead), and the append and the apply run under one hold of this
/// object's mutex, so concurrent writers journal in exactly the order they
/// apply.
///
/// Query operations in a mixed run are filtered out — they are read-only and
/// deterministic, so replay needs only the writes.
class DurableStore {
 public:
  explicit DurableStore(StoreLayout layout) : layout_(std::move(layout)) {}

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  const StoreLayout& layout() const { return layout_; }

  /// Opens the journal for appending at `next_seq` (0 for a fresh store;
  /// one past the last valid record after recovery).
  Status OpenJournal(uint64_t next_seq, size_t fsync_every);

  /// Journals the write operations of `ops` (kInsert/kDelete/kUpdate) as one
  /// record, then returns `apply()`, both under the store mutex. A run with
  /// no writes appends nothing and applies without the mutex, so read-only
  /// runs still overlap. Aborts on append failure: continuing would apply a
  /// write the journal never saw, silently breaking the recovery guarantee.
  template <typename Apply>
  auto CommitOps(const Operation* ops, size_t n, Apply&& apply) {
    if (!HasWrites(ops, n)) return apply();
    MutexLock lock(mu_);
    AppendOpsLocked(ops, n);
    return apply();
  }

  /// Journals payload-carrying rows (Insert / InsertRows) as one record, then
  /// returns `apply()`, both under the store mutex.
  template <typename Apply>
  auto CommitRows(const Row* rows, size_t n, Apply&& apply) {
    MutexLock lock(mu_);
    AppendRowsLocked(rows, n);
    return apply();
  }

  /// Journal-only form of CommitOps (nothing to apply).
  void LogOps(const Operation* ops, size_t n) { CommitOps(ops, n, [] {}); }

  /// Forces batched journal records to disk (fsync_every > 1).
  Status Flush();

 private:
  static bool HasWrites(const Operation* ops, size_t n);
  void AppendOpsLocked(const Operation* ops, size_t n) REQUIRES(mu_);
  void AppendRowsLocked(const Row* rows, size_t n) REQUIRES(mu_);

  StoreLayout layout_;
  Mutex mu_;
  JournalWriter journal_ GUARDED_BY(mu_);
};

/// Writes the store's base image: one chunk file per table chunk (snapshotted
/// under shared chunk latches) and, last, the manifest — whose atomic rename
/// is the commit point certifying every base file below it is complete.
Status CreateStore(const StoreLayout& layout, const PartitionedTable& table,
                   uint32_t layout_mode, uint64_t chunk_values);

/// Everything recovery needs to rebuild the table through the deterministic
/// Build path: globally sorted keys, aligned payload columns, and the
/// per-chunk partition-size/ghost specs decoded from the base files.
struct RecoveredTableData {
  std::vector<Value> keys;
  std::vector<std::vector<Payload>> payload;  ///< [col][row], aligned
  std::vector<PartitionedTable::ChunkLayoutSpec> specs;
};

/// Reads the manifest and decodes every base chunk file. `spare_tail` is the
/// chunk-build option the table will be rebuilt with: Build re-appends it to
/// each chunk's last partition, so it is subtracted from the decoded ghost
/// vectors to reproduce the stored capacity envelope exactly. Also wipes any
/// tier files (they are a cache that may postdate the last committed run).
Status LoadStore(const StoreLayout& layout, Manifest* manifest,
                 RecoveredTableData* out, size_t spare_tail);

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_DURABLE_STORE_H_
