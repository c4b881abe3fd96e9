#ifndef CASPER_PERSIST_JOURNAL_H_
#define CASPER_PERSIST_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/io.h"
#include "storage/types.h"
#include "util/status.h"
#include "workload/ops.h"

namespace casper {
namespace persist {

/// Append-only write-ahead journal of committed write runs. One record per
/// facade-level write call (Insert/InsertRows -> a row run; Delete/Update/
/// RunMixed -> an operation run), appended BEFORE the write is
/// applied, in the order the facade serializes them. Together with the base
/// chunk files this is the durable truth: recovery replays the journal's
/// valid prefix serially and lands on exactly the state the engine held
/// after the last synced record.
///
/// Record wire format (little-endian):
///   u32 magic | u32 type | u64 seq | u64 payload_len | payload | u32 crc
/// where crc covers magic..payload. Sequence numbers start at 0 and
/// increment by 1; a gap, a bad crc, or a truncated tail ends the valid
/// prefix (everything after a torn record is discarded at recovery).
///
/// Durability: records are fsynced every `fsync_every` appends (1 = strict
/// write-ahead durability; larger batches trade the last few records for
/// throughput — the recovery guarantee is then "the last synced record or
/// later is the cut point, never a torn state").

constexpr uint32_t kJournalMagic = 0x4C414A43u;  // 'CJAL'

enum class JournalRecordType : uint32_t {
  kOpsRun = 1,   ///< Operation stream (deletes, updates, key-derived inserts)
  kRowsRun = 2,  ///< payload-carrying rows (Insert / InsertRows)
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kOpsRun;
  uint64_t seq = 0;
  std::vector<Operation> ops;  ///< kOpsRun
  std::vector<Row> rows;       ///< kRowsRun
};

class JournalWriter {
 public:
  /// Opens (creating if absent) for appending. `next_seq` is the sequence
  /// number the next record gets — at recovery, one past the last valid
  /// record. `fsync_every` >= 1 batches fsyncs.
  Status Open(const std::string& path, uint64_t next_seq, size_t fsync_every);

  /// Appends one kOpsRun record of the write operations in ops[0, n), in
  /// order (reads are read-only and deterministic, so replay needs none).
  Status AppendOps(const Operation* ops, size_t n);
  /// Appends one kRowsRun record of rows[0, n).
  Status AppendRows(const Row* rows, size_t n);

  /// Forces any batched records down to disk.
  Status Flush();

  uint64_t next_seq() const { return next_seq_; }
  bool is_open() const { return file_.is_open(); }
  void Close() { file_.Close(); }

 private:
  /// Completes the record `rec` holds (header, then payload): fills in its
  /// payload length, appends the CRC and writes it out.
  Status AppendRecord(ByteSink* rec);

  FileAppender file_;
  uint64_t next_seq_ = 0;
  size_t fsync_every_ = 1;
  size_t unsynced_ = 0;
};

/// Reads the journal's valid prefix: records parse in order until the first
/// torn / corrupt / out-of-sequence one. `valid_bytes` receives the byte
/// length of that prefix (the recovery truncation point). A missing file is
/// an empty journal, not an error.
Status ReadJournal(const std::string& path, std::vector<JournalRecord>* out,
                   uint64_t* valid_bytes);

/// Truncates the file to `len` bytes (recovery discards the torn tail so a
/// reopened writer appends after the last valid record).
Status TruncateFile(const std::string& path, uint64_t len);

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_JOURNAL_H_
