#ifndef CASPER_PERSIST_IO_H_
#define CASPER_PERSIST_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace casper {
namespace persist {

// --- Byte-level (de)serialization -------------------------------------------
// Every persisted artifact is little-endian, fixed-width fields appended into
// a flat buffer that is checksummed as a whole. ByteSink builds the buffer;
// ByteSource is the bounds-checked mirror that refuses to read past the end
// (a truncated or corrupt file turns into a clean decode failure, never an
// out-of-bounds access).

class ByteSink {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void U64Vector(const std::vector<uint64_t>& v) {
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(uint64_t));
  }
  /// Overwrites the 8 bytes at `pos` (a field written before its value was
  /// known, such as a length prefix).
  void U64At(size_t pos, uint64_t v) { std::memcpy(&buf_[pos], &v, sizeof(v)); }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class ByteSource {
 public:
  ByteSource(const void* data, size_t n)
      : p_(static_cast<const char*>(data)), n_(n) {}
  explicit ByteSource(const std::string& s) : ByteSource(s.data(), s.size()) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool Raw(void* out, size_t n);
  bool U64Vector(std::vector<uint64_t>* out);
  /// Reads a length-prefixed u64 count bounded by the bytes remaining /
  /// `elem_bytes` — the guard that keeps a corrupt length field from
  /// driving a multi-gigabyte allocation before the CRC would catch it.
  bool BoundedCount(uint64_t* count, size_t elem_bytes);

  size_t remaining() const { return n_ - pos_; }
  bool exhausted() const { return pos_ == n_; }

 private:
  const char* p_;
  size_t n_;
  size_t pos_ = 0;
};

// --- Crash / fault injection (tests) -----------------------------------------

/// Kill-point hook: when the CASPER_PERSIST_CRASH_POINT environment variable
/// names this point, the process exits immediately (_exit, no cleanup) —
/// simulating a crash at exactly this moment in the write path. Death tests
/// fork, crash the child here, and verify the parent-side recovery.
void MaybeCrash(const char* point);

namespace testing {
/// Torn-write injector: after `bytes` more bytes have been written through
/// the persist I/O layer, writes stop mid-buffer and fail — simulating a
/// crash at byte granularity without killing the process, so a single test
/// can fuzz every crash offset of a journal run. Negative disables.
void SetWriteFailureAfterBytes(int64_t bytes);
void ClearWriteFailure();
}  // namespace testing

// --- File primitives ---------------------------------------------------------

/// Creates `dir` (and one missing parent level) if absent.
Status EnsureDir(const std::string& dir);

/// True if the path names an existing file.
bool FileExists(const std::string& path);

Status ReadFileToString(const std::string& path, std::string* out);

/// Writes `data` to `path` durably and atomically: tmp file -> write ->
/// fsync -> rename -> fsync(dir). The rename is the commit point — a crash
/// anywhere before it leaves the previous file contents intact.
Status WriteFileAtomic(const std::string& path, const std::string& data);

Status RemoveFileIfExists(const std::string& path);

/// Append-only file handle for the journal: open once, append records,
/// fsync on demand. All writes route through the fault injector.
class FileAppender {
 public:
  FileAppender() = default;
  ~FileAppender();
  FileAppender(const FileAppender&) = delete;
  FileAppender& operator=(const FileAppender&) = delete;

  Status Open(const std::string& path);  ///< creates or appends
  Status Append(const void* p, size_t n);
  Status Sync();
  void Close();
  bool is_open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace persist
}  // namespace casper

#endif  // CASPER_PERSIST_IO_H_
