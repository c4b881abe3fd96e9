#include "persist/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "persist/crc32.h"

namespace casper {
namespace persist {

namespace {

/// Fixed part of a record before its payload: magic + type + seq + len.
constexpr size_t kRecordHeader = 4 + 4 + 8 + 8;

/// Starts a record in `rec`: its header, with a zero payload length that
/// JournalWriter::AppendRecord fills in once the payload follows.
void BeginRecord(JournalRecordType type, uint64_t seq, ByteSink* rec) {
  rec->U32(kJournalMagic);
  rec->U32(static_cast<uint32_t>(type));
  rec->U64(seq);
  rec->U64(0);
}

/// The write operations of ops[0, n), in order; reads are dropped.
void SerializeWrites(const Operation* ops, size_t n, ByteSink* s) {
  s->U64(static_cast<uint64_t>(std::count_if(
      ops, ops + n, [](const Operation& op) { return IsWriteKind(op.kind); })));
  for (size_t i = 0; i < n; ++i) {
    if (!IsWriteKind(ops[i].kind)) continue;
    s->U32(static_cast<uint32_t>(ops[i].kind));
    s->I64(ops[i].a);
    s->I64(ops[i].b);
  }
}

bool ParseOps(ByteSource* src, std::vector<Operation>* out) {
  uint64_t n = 0;
  if (!src->BoundedCount(&n, 4 + 8 + 8)) return false;
  out->resize(n);
  for (Operation& op : *out) {
    uint32_t kind = 0;
    if (!src->U32(&kind) || !src->I64(&op.a) || !src->I64(&op.b)) return false;
    if (kind >= static_cast<uint32_t>(kNumOpKinds)) return false;
    op.kind = static_cast<OpKind>(kind);
  }
  return true;
}

void SerializeRows(const Row* rows, size_t n, ByteSink* s) {
  const uint64_t cols = n > 0 ? rows[0].payload.size() : 0;
  s->U64(n);
  s->U64(cols);
  for (size_t i = 0; i < n; ++i) {
    // The record stores one width for every row; a row of another width
    // would be read past its end here and misparse on replay.
    CASPER_CHECK(rows[i].payload.size() == cols);
    s->I64(rows[i].key);
    for (uint64_t c = 0; c < cols; ++c) s->U32(rows[i].payload[c]);
  }
}

bool ParseRows(ByteSource* src, std::vector<Row>* out) {
  uint64_t n = 0;
  uint64_t cols = 0;
  if (!src->U64(&n) || !src->U64(&cols)) return false;
  if (n > src->remaining() / 8 || cols > src->remaining() / 4) return false;
  out->resize(n);
  for (Row& row : *out) {
    if (!src->I64(&row.key)) return false;
    row.payload.resize(cols);
    for (uint64_t c = 0; c < cols; ++c) {
      if (!src->U32(&row.payload[c])) return false;
    }
  }
  return true;
}

}  // namespace

Status JournalWriter::Open(const std::string& path, uint64_t next_seq,
                           size_t fsync_every) {
  next_seq_ = next_seq;
  fsync_every_ = fsync_every == 0 ? 1 : fsync_every;
  unsynced_ = 0;
  return file_.Open(path);
}

Status JournalWriter::AppendRecord(ByteSink* rec) {
  CASPER_CHECK(file_.is_open());
  rec->U64At(kRecordHeader - 8, rec->size() - kRecordHeader);
  const uint32_t crc = Crc32(rec->data().data(), rec->size());
  rec->U32(crc);
  MaybeCrash("journal:before_append");
  Status s = file_.Append(rec->data().data(), rec->size());
  if (!s.ok()) return s;
  ++next_seq_;
  if (++unsynced_ >= fsync_every_) {
    MaybeCrash("journal:before_sync");
    s = file_.Sync();
    if (!s.ok()) return s;
    unsynced_ = 0;
    MaybeCrash("journal:after_sync");
  }
  return Status::Ok();
}

Status JournalWriter::AppendOps(const Operation* ops, size_t n) {
  ByteSink rec;
  BeginRecord(JournalRecordType::kOpsRun, next_seq_, &rec);
  SerializeWrites(ops, n, &rec);
  return AppendRecord(&rec);
}

Status JournalWriter::AppendRows(const Row* rows, size_t n) {
  ByteSink rec;
  BeginRecord(JournalRecordType::kRowsRun, next_seq_, &rec);
  SerializeRows(rows, n, &rec);
  return AppendRecord(&rec);
}

Status JournalWriter::Flush() {
  if (!file_.is_open() || unsynced_ == 0) return Status::Ok();
  const Status s = file_.Sync();
  if (s.ok()) unsynced_ = 0;
  return s;
}

Status ReadJournal(const std::string& path, std::vector<JournalRecord>* out,
                   uint64_t* valid_bytes) {
  out->clear();
  *valid_bytes = 0;
  if (!FileExists(path)) return Status::Ok();  // empty journal
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  if (!s.ok()) return s;
  size_t pos = 0;
  uint64_t expect_seq = 0;
  while (bytes.size() - pos >= kRecordHeader + 4) {
    ByteSource src(bytes.data() + pos, bytes.size() - pos);
    uint32_t magic = 0;
    uint32_t type = 0;
    uint64_t seq = 0;
    uint64_t len = 0;
    if (!src.U32(&magic) || !src.U32(&type) || !src.U64(&seq) ||
        !src.U64(&len)) {
      break;
    }
    if (magic != kJournalMagic || seq != expect_seq) break;
    if (type != static_cast<uint32_t>(JournalRecordType::kOpsRun) &&
        type != static_cast<uint32_t>(JournalRecordType::kRowsRun)) {
      break;
    }
    if (len > bytes.size() - pos - kRecordHeader - 4) break;  // torn tail
    const size_t rec_len = kRecordHeader + len + 4;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + pos + kRecordHeader + len, 4);
    if (stored_crc != Crc32(bytes.data() + pos, kRecordHeader + len)) break;
    JournalRecord rec;
    rec.type = static_cast<JournalRecordType>(type);
    rec.seq = seq;
    ByteSource payload(bytes.data() + pos + kRecordHeader, len);
    const bool parsed = rec.type == JournalRecordType::kOpsRun
                            ? ParseOps(&payload, &rec.ops)
                            : ParseRows(&payload, &rec.rows);
    if (!parsed || !payload.exhausted()) break;
    out->push_back(std::move(rec));
    pos += rec_len;
    ++expect_seq;
  }
  *valid_bytes = pos;
  return Status::Ok();
}

Status TruncateFile(const std::string& path, uint64_t len) {
  if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
    if (errno == ENOENT && len == 0) return Status::Ok();
    return Status::Internal(path + ": truncate: " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace persist
}  // namespace casper
