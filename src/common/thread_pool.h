#ifndef VERITAS_COMMON_THREAD_POOL_H_
#define VERITAS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace veritas {

/// Fixed-size worker pool used to parallelize per-claim information-gain
/// evaluation (§5.1 "Parallelisation"). Tasks are void thunks; results are
/// communicated through captured state. Wait() blocks until the queue drains.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 falls back to hardware concurrency).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after destruction began.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Convenience: runs fn(i) for i in [0, n) across the pool and returns
  /// once every fn(i) has returned. The call completes on its own: the
  /// caller runs bodies too and awaits only the bodies of this call, never
  /// another caller's tasks, so concurrent callers can share one pool. At
  /// most num_threads() bodies run at once, so a single-worker pool runs
  /// them all on the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Range-sharded variant: splits [0, n) into at most num_threads()
  /// contiguous ranges and runs fn(begin, end) per range, completing per
  /// call like ParallelFor. One invocation per range (instead of one task
  /// per index) lets each shard own per-thread scratch across its whole
  /// range — the shape the chromatic Gibbs color classes and the batched
  /// candidate fan-out need. Ranges smaller than `min_grain` are merged; a
  /// single resulting range runs inline on the caller.
  void ParallelForRanges(size_t n, size_t min_grain,
                         const std::function<void(size_t, size_t)>& fn);

 private:
  /// Runs body(i) for i in [0, items) on the caller plus up to
  /// num_threads() - 1 pooled helpers, and returns when all `items` bodies
  /// have returned.
  void RunCall(size_t items, const std::function<void(size_t)>& body);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The process-wide compute pool that parallel guidance and inference steps
/// borrow (§5.1 "Parallelisation"). Created on first use with one worker
/// per hardware thread and never destroyed, so a process that runs no
/// parallel step starts no thread for it.
ThreadPool& ComputePool();

}  // namespace veritas

#endif  // VERITAS_COMMON_THREAD_POOL_H_
