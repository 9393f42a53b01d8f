#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace veritas {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSingleWorkerIsSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(10, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.ParallelFor(0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<long long> partial(n, 0);
  pool.ParallelFor(n, [&](size_t i) { partial[i] = static_cast<long long>(i); });
  const long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

// Two callers share one pool. Caller A's bodies block until released, so
// they hold four threads; caller B's calls must still complete, because a
// call awaits only its own bodies and its caller runs them when every
// worker is busy. The wait is bounded so a regression fails, not hangs.
TEST(ThreadPoolTest, ConcurrentCallersCompleteIndependently) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable release;
  bool released = false;
  std::atomic<size_t> a_running{0};
  std::thread a([&] {
    pool.ParallelFor(8, [&](size_t) {
      a_running.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      release.wait(lock, [&] { return released; });
    });
  });
  while (a_running.load() < 4) std::this_thread::yield();

  auto b = std::async(std::launch::async, [&pool] {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    pool.ParallelForRanges(100, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    return sum.load();
  });
  const bool b_done =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  release.notify_all();
  a.join();
  EXPECT_TRUE(b_done) << "a ParallelFor waited on another caller's bodies";
  EXPECT_EQ(b.get(), 2u * 4950u);
  EXPECT_EQ(a_running.load(), 8u);
}

}  // namespace
}  // namespace veritas
