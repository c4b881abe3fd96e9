#include "util/thread_pool.h"

#include "util/status.h"

namespace casper {

ThreadPool::ThreadPool(size_t num_threads) {
  CASPER_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      idle_cv_.wait(lock.native(), [this] {
        // Wait predicates run with the mutex held, but the analysis treats
        // the lambda as a separate context with no capability in scope.
        mu_.AssertHeld();
        return in_flight_ == 0 || !tasks_.empty();
      });
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    RunTask(task);
  }
}

void ThreadPool::RunTask(const std::function<void()>& task) {
  task();
  MutexLock lock(mu_);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      task_cv_.wait(lock.native(), [this] {
        mu_.AssertHeld();
        return stop_ || !tasks_.empty();
      });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    RunTask(task);
  }
}

}  // namespace casper
