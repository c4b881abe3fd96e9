#ifndef CASPER_UTIL_STATUS_H_
#define CASPER_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace casper {

/// Lightweight status object for recoverable errors on the storage-engine API.
/// Unrecoverable programming errors use CASPER_CHECK instead (fail fast).
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kInternal,
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(Code::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) { return Status(Code::kNotFound, std::move(m)); }
  static Status Internal(std::string m) { return Status(Code::kInternal, std::move(m)); }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    static const char* names[] = {"OK", "InvalidArgument", "NotFound",
                                  "Internal"};
    return std::string(names[static_cast<int>(code_)]) + ": " + message_;
  }

 private:
  Code code_;
  std::string message_;
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line, const char* expr,
                                     const std::string& extra) {
  std::fprintf(stderr, "CASPER_CHECK failed at %s:%d: %s %s\n", file, line, expr,
               extra.c_str());
  std::abort();
}
}  // namespace internal

#define CASPER_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) ::casper::internal::CheckFailed(__FILE__, __LINE__, #expr, ""); \
  } while (0)

#define CASPER_CHECK_MSG(expr, msg)                             \
  do {                                                          \
    if (!(expr)) {                                              \
      std::ostringstream oss_;                                  \
      oss_ << msg;                                              \
      ::casper::internal::CheckFailed(__FILE__, __LINE__, #expr, oss_.str()); \
    }                                                           \
  } while (0)

}  // namespace casper

#endif  // CASPER_UTIL_STATUS_H_
