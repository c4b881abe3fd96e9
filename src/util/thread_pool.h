#ifndef CASPER_UTIL_THREAD_POOL_H_
#define CASPER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace casper {

/// Fixed-size thread pool. Column chunks are independent units of layout
/// solving and of execution (paper §6.3); exec::MorselFor (exec/morsel.h) is
/// the one loop that fans chunk-sized work out over it.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw and must not call Wait.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished. Tasks still queued are
  /// run on the calling thread, so a caller never sleeps while work it
  /// waits for sits behind a busy or not-yet-woken worker.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();
  /// Runs a popped task and retires it (mu_ not held).
  void RunTask(const std::function<void()>& task) EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  Mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace casper

#endif  // CASPER_UTIL_THREAD_POOL_H_
