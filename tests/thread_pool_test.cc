// Tests for the fixed worker pool behind the serving facade:
// futures carry results and exceptions, every submitted task runs exactly
// once (including across destruction).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace loom {
namespace {

TEST(ThreadPoolTest, SubmitReturnsTaskResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumThreads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ManyTasksOnFewWorkersAllRunExactlyOnce) {
  constexpr size_t kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> done;
    for (size_t i = 0; i < kTasks; ++i) {
      done.push_back(pool.Submit([&runs, i] { runs[i].fetch_add(1); }));
    }
    for (auto& f : done) f.get();
  }
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // No explicit join: the destructor must drain the queue.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ExceptionsArriveThroughTheFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 3; }).get(), 3);
}

}  // namespace
}  // namespace loom
