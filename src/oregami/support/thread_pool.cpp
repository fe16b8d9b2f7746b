#include "oregami/support/thread_pool.hpp"

#include <algorithm>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace oregami {

namespace {
/// Set by worker_loop; -1 everywhere else (main thread, detached
/// threads, workers of a pool that has been destroyed -- the value is
/// reset before join so a reused OS thread never leaks an index).
thread_local int tl_worker_index = -1;
}  // namespace

int ThreadPool::resolve_workers(int jobs) {
  if (jobs > 0) {
    return jobs;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int ThreadPool::current_worker_index() { return tl_worker_index; }

ThreadPool::ThreadPool(int num_workers, const char* name) {
  const int count = resolve_workers(num_workers);
  const std::string base(name == nullptr ? "oregami-w" : name);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back(
        [this, i, worker_name = base + "#" + std::to_string(i)] {
          worker_loop(i, worker_name);
        });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop(int worker_index, const std::string& name) {
  tl_worker_index = worker_index;
#if defined(__linux__)
  // Linux caps thread names at 15 chars + NUL; truncate rather than
  // fail (pthread_setname_np errors on longer strings).
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        tl_worker_index = -1;
        return;  // stopping_ set and nothing left to drain
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // submit() wraps every task in a packaged_task, which stores the
    // task's exception in its future -- but a raw enqueue'd job (or a
    // packaged_task whose *move/dtor* throws) would otherwise unwind
    // the worker and terminate the process, dropping every queued task
    // AND any trace events those tasks would have flushed. Contain it:
    // a throwing job kills only itself, never the worker.
    try {
      job();
    } catch (...) {
      // Swallowed by design: result-carrying tasks report through
      // their future; anything else has no channel to report on.
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace oregami
