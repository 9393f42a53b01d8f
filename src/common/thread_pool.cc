#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace veritas {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  RunCall(n, fn);
}

void ThreadPool::ParallelForRanges(size_t n, size_t min_grain,
                                   const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t grain = std::max<size_t>(1, min_grain);
  const size_t shards =
      std::min(workers_.size(), std::max<size_t>(1, n / grain));
  const size_t chunk = (n + shards - 1) / shards;
  RunCall((n + chunk - 1) / chunk, [&fn, n, chunk](size_t r) {
    fn(r * chunk, std::min(n, (r + 1) * chunk));
  });
}

void ThreadPool::RunCall(size_t items, const std::function<void(size_t)>& body) {
  // Shared with the helpers, which may start only after this call returned:
  // such a helper finds `next` exhausted and never touches `body`.
  struct Call {
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::condition_variable all_finished;
    size_t finished = 0;  // guarded by mutex
  };
  auto call = std::make_shared<Call>();
  auto drain = [call, items, &body] {
    size_t ran = 0;
    for (size_t i = call->next.fetch_add(1); i < items;
         i = call->next.fetch_add(1)) {
      body(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(call->mutex);
    call->finished += ran;
    if (call->finished == items) call->all_finished.notify_all();
  };
  const size_t participants = std::min(items, workers_.size());
  for (size_t h = 1; h < participants; ++h) Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(call->mutex);
  call->all_finished.wait(lock, [&] { return call->finished == items; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ComputePool() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

}  // namespace veritas
