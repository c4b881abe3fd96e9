#ifndef CASPER_UTIL_STOPWATCH_H_
#define CASPER_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace casper {

/// Monotonic wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
            .count());
  }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace casper

#endif  // CASPER_UTIL_STOPWATCH_H_
