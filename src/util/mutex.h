#ifndef CASPER_UTIL_MUTEX_H_
#define CASPER_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace casper {

/// std::mutex with capability annotations. libstdc++'s std::mutex /
/// std::lock_guard carry no thread-safety attributes, so locking through
/// them is invisible to the analysis; this wrapper makes plain-mutex
/// critical sections (thread pool, durable store, tier manager, maintenance)
/// checkable with the same GUARDED_BY/REQUIRES contract as the chunk latches.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

  /// Tells the analysis the mutex is held from this call on — for callback
  /// contexts it cannot follow (condition-variable wait predicates run with
  /// the lock held).
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII hold on a Mutex. Exposes the underlying std::unique_lock for
/// condition-variable waits: cv.wait(lock.native()) atomically releases and
/// reacquires the mutex, so from the analysis's (and every invariant's)
/// viewpoint the capability is held whenever the caller runs.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace casper

#endif  // CASPER_UTIL_MUTEX_H_
