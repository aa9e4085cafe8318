// Thread-pool batch runner for embarrassingly parallel scenario sweeps.
//
// The bench/figure harness runs many independent closed-loop simulations
// (one per drive cycle, ambient temperature or ablation variant), and the
// session service runs one pump task per shard. Each scenario owns its
// controllers and RNG state, so they parallelize with no shared mutable
// state; parallel_map writes each scenario's result into its own slot,
// making the output bit-identical to a serial run regardless of worker
// count or scheduling.
//
// Scheduling: one shared FIFO queue under one mutex. submit() pushes to the
// back and wakes one worker; an idle worker takes the oldest queued task, so
// a worker stuck behind one long task never strands the tasks queued after
// it. Queued→run latency is on the "pool.task" span as `queue_ns`.
//
// Worker count: EVC_THREADS in the environment overrides (total concurrency
// including the calling thread; 1 = serial), otherwise hardware concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_context.hpp"

namespace evc::rt {

/// Fixed-size pool of worker threads draining one shared FIFO task queue.
/// The pool holds *helper* threads: batch helpers below also run work on
/// the calling thread, so a pool of size 0 is valid and means "serial".
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task at the back of the queue and wake one worker. With zero
  /// workers the task runs inline.
  void submit(std::function<void()> task);

  /// Always 0: the pool does not steal work. Its only reader is
  /// perfbench, which reports it as steals per request.
  std::uint64_t steals() const { return 0; }

  /// Total desired concurrency: EVC_THREADS if set and positive, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_concurrency();

  /// Process-wide pool with default_concurrency() − 1 helper threads,
  /// created on first use. EVC_THREADS=1 therefore makes every
  /// parallel_for/parallel_map on the global pool strictly serial.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  ///< tracer timestamp; 0 while disabled
    /// Submitter's ambient trace context, re-installed around fn() so a
    /// request's causal chain survives the queue hop. Captured only while
    /// the tracer is enabled; inactive otherwise.
    obs::TraceContext trace;
  };

  void worker_loop();
  static void run_task(Task& task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;  ///< guarded by mutex_
  bool stop_ = false;       ///< guarded by mutex_
};

/// Run fn(i) for every i in [0, n) using `pool`'s helpers plus the calling
/// thread. Returns after all iterations finish; the first exception thrown
/// by fn is rethrown (remaining iterations are skipped once one fails).
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t helpers = n > 1 ? std::min(pool.size(), n - 1) : 0;

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  const auto drain = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::atomic<std::size_t> pending{helpers};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (std::size_t w = 0; w < helpers; ++w) {
    pool.submit([&]() {
      drain();
      // Notify while still holding the lock: the caller's wait cannot
      // observe pending == 0 and return (destroying the stack-local cv and
      // mutex) until this helper is done touching them.
      std::lock_guard<std::mutex> lock(done_mutex);
      pending.fetch_sub(1, std::memory_order_relaxed);
      done_cv.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending.load() == 0; });
  if (error) std::rethrow_exception(error);
}

template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  parallel_for(ThreadPool::global(), n, std::forward<Fn>(fn));
}

/// parallel_for that collects results: out[i] = fn(i). Slot-indexed, so the
/// result vector is identical to the serial `for` loop's.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  return parallel_map<T>(ThreadPool::global(), n, std::forward<Fn>(fn));
}

}  // namespace evc::rt
