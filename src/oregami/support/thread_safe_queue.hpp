// A bounded multi-producer multi-consumer queue with close semantics,
// in the mould of the task-pool/queue composition interfaces of the
// CompositionalPerformanceAnalyzer exemplar (SNIPPETS.md): producers
// block (or fail fast with try_push) when the queue is full, consumers
// block until an item arrives or the queue is closed and drained.
//
// The mapping server uses one as the result channel: worker threads
// push finished result lines, a single writer thread pops and emits
// them in completion order, and the bound keeps a slow output pipe
// from buffering the whole backlog in memory.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace oregami {

template <typename T>
class ThreadSafeQueue {
 public:
  /// `capacity` == 0 means unbounded.
  explicit ThreadSafeQueue(std::size_t capacity = 0)
      : capacity_(capacity) {}

  ThreadSafeQueue(const ThreadSafeQueue&) = delete;
  ThreadSafeQueue& operator=(const ThreadSafeQueue&) = delete;

  /// Blocks while the queue is full. Returns false (item dropped) when
  /// the queue has been closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || !full_locked(); });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || full_locked()) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND
  /// drained (then nullopt -- the consumer's termination signal).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;  // closed and drained
    }
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// After close() every push fails and every pop drains the remaining
  /// items, then reports nullopt. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  [[nodiscard]] bool full_locked() const {
    return capacity_ != 0 && items_.size() >= capacity_;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_ = 0;
  bool closed_ = false;
};

}  // namespace oregami
