#ifndef LOOM_COMMON_THREAD_POOL_H_
#define LOOM_COMMON_THREAD_POOL_H_

/// \file
/// Fixed-size worker pool for share-nothing parallel stages (the serving
/// facade's pipeline worker).
/// Design goals, in order:
///
///  1. *Determinism of results.* Tasks are handed to workers FIFO in
///     submission order, but nothing about the pool may leak scheduling
///     into results: callers submit independent tasks (each owning its
///     mutable state, sharing only read-only inputs) and join them in
///     submission order via the returned futures.
///  2. *Bounded resources.* The worker count is fixed at construction and
///     the destructor drains outstanding tasks and joins every worker, so a
///     pool can never outlive the state its tasks reference.
///  3. *No dropped errors.* A task that throws stores the exception in its
///     future; `Submit` + `future.get()` rethrows it on the joining thread.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace loom {

/// Fixed pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one) that run until
  /// destruction.
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Drains already-submitted tasks, then joins every worker. Callers that
  /// need task results (or exceptions) must `get()` the futures first.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Enqueues `fn` and returns the future of its result. Tasks start in
  /// submission order (FIFO handoff); an exception thrown by `fn` is
  /// delivered through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping, queue drained
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace loom

#endif  // LOOM_COMMON_THREAD_POOL_H_
