#include "runtime/thread_pool.hpp"

#include <cstdlib>

#include "obs/trace.hpp"

namespace evc::rt {

// Runs one queued task under a "pool.task" span carrying how long it sat in
// the queue — the signal that distinguishes a saturated pool from slow
// tasks. Tracer disabled: a plain call.
void ThreadPool::run_task(Task& task) {
#if !defined(EVC_OBS_NO_TRACING)
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Re-install the submitter's request context before opening the span,
    // so "pool.task" (and everything fn() does) links into the request's
    // causal chain no matter which worker ran it.
    obs::ScopedTraceContext ambient(task.trace);
    EVC_TRACE_SPAN_VAR(task_span, "pool.task");
    const std::uint64_t now = tracer.now_ns();
    task_span.arg("queue_ns",
                  task.enqueue_ns != 0 && now > task.enqueue_ns
                      ? static_cast<double>(now - task.enqueue_ns)
                      : 0.0);
    task.fn();
    return;
  }
#endif
  task.fn();
}

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::uint64_t enqueue_ns = 0;
  obs::TraceContext trace;
#if !defined(EVC_OBS_NO_TRACING)
  if (obs::Tracer::global().enabled()) {
    enqueue_ns = obs::Tracer::global().now_ns();
    trace = obs::ambient_trace_context();
  }
#endif
  if (workers_.empty()) {
    Task inline_task{std::move(task), enqueue_ns, trace};
    run_task(inline_task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(Task{std::move(task), enqueue_ns, trace});
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Empty here means stop was requested and the queue has drained.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    run_task(task);
  }
}

std::size_t ThreadPool::default_concurrency() {
  if (const char* env = std::getenv("EVC_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0 && parsed <= 256) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_concurrency() - 1);
  return pool;
}

}  // namespace evc::rt
