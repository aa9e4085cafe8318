// Thread-pool batch runner: determinism (slot-indexed results identical to
// the serial loop), exception propagation, serial degradation, and the
// shared queue's draining guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "runtime/deadline.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace evc;

TEST(ThreadPool, ParallelMapMatchesSerialLoop) {
  const std::size_t n = 200;
  const auto fn = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= i; ++k)
      acc += static_cast<double>(k * k) * 1e-3;
    return acc;
  };
  rt::ThreadPool pool(3);
  const std::vector<double> parallel = rt::parallel_map<double>(pool, n, fn);
  ASSERT_EQ(parallel.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(parallel[i], fn(i));
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  rt::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::atomic<int> calls{0};
  rt::parallel_for(pool, 17, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 17);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  rt::ThreadPool pool(2);
  rt::parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, FirstExceptionPropagates) {
  rt::ThreadPool pool(3);
  EXPECT_THROW(rt::parallel_for(pool, 64,
                                [](std::size_t i) {
                                  if (i == 13)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  rt::ThreadPool pool(4);
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  rt::parallel_for(pool, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(rt::ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, LongTaskDoesNotStrandTheQueue) {
  // One worker sits in a task that blocks until the test releases it; the
  // other worker must still run every task queued behind it.
  const std::size_t n = 16;
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::size_t done = 0;
  rt::ThreadPool pool(2);  // destroyed first: joins after the release
  pool.submit([&]() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&]() {
      std::lock_guard<std::mutex> lock(mutex);
      ++done;
      cv.notify_all();
    });
  }
  bool drained = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    drained = cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done == n; });
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(drained) << done << " of " << n
                       << " tasks ran while the long task blocked";
}

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  // The only worker is held in a gate task while 64 tasks queue behind it.
  // Another thread opens the gate 50 ms later, by which time the destructor
  // has begun, so the tasks are still queued when the pool is told to stop.
  const std::size_t n = 64;
  std::atomic<std::size_t> ran{0};
  std::promise<void> gate;
  std::thread opener;
  {
    rt::ThreadPool pool(1);
    pool.submit([opened = gate.get_future().share()]() { opened.wait(); });
    for (std::size_t i = 0; i < n; ++i)
      pool.submit([&]() { ran.fetch_add(1, std::memory_order_relaxed); });
    opener = std::thread([&gate]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.set_value();
    });
  }
  opener.join();
  EXPECT_EQ(ran.load(), n);
}

TEST(Deadline, InactiveNeverExpires) {
  const rt::Deadline none;
  EXPECT_FALSE(none.active());
  EXPECT_FALSE(none.expired());
  EXPECT_EQ(none.remaining_s(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(rt::Deadline::never().active());
}

TEST(Deadline, BudgetContractZeroDisables) {
  // The SqpOptions time_budget_s contract: <= 0 means "no
  // watchdog", not "instant timeout".
  EXPECT_FALSE(rt::Deadline::from_budget_s(0.0).active());
  EXPECT_FALSE(rt::Deadline::from_budget_s(-1.0).active());
  EXPECT_TRUE(rt::Deadline::from_budget_s(10.0).active());
  EXPECT_FALSE(rt::Deadline::from_budget_s(10.0).expired());
}

TEST(Deadline, ExpiryAtBoundaryIsInclusive) {
  // A deadline placed exactly at "now" is already expired: zero budget
  // means the first check fails, never one free iteration.
  const auto now = rt::Deadline::Clock::now();
  const rt::Deadline at_now = rt::Deadline::at(now);
  EXPECT_TRUE(at_now.active());
  EXPECT_TRUE(at_now.expired(now));
  EXPECT_TRUE(at_now.expired());  // the clock only moved forward since
  EXPECT_TRUE(rt::Deadline::after_s(0.0).expired());
  EXPECT_TRUE(rt::Deadline::after_s(-5.0).expired());
  // One tick before the boundary is not expired; one tick after is.
  const rt::Deadline at_tick = rt::Deadline::at(now);
  EXPECT_FALSE(at_tick.expired(now - rt::Deadline::Clock::duration(1)));
  EXPECT_TRUE(at_tick.expired(now + rt::Deadline::Clock::duration(1)));
}

TEST(ThreadPool, TraceContextSurvivesTheQueueHop) {
  // Each task runs on whichever worker pops it; the submitter's ambient
  // TraceContext must still be re-installed around it.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);

  const std::size_t n = 64;
  std::atomic<std::size_t> correct{0};
  std::atomic<std::size_t> done{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  {
    rt::ThreadPool pool(3);
    ASSERT_EQ(pool.size(), 3u);
    for (std::size_t i = 0; i < n; ++i) {
      obs::TraceContext ctx;
      ctx.trace_id = 1000 + i;
      ctx.vehicle_id = i;
      ctx.request_seq = i;
      // submit() captures the submitter's ambient context per task.
      obs::ScopedTraceContext ambient(ctx);
      pool.submit([&, i]() {
        const obs::TraceContext& seen = obs::ambient_trace_context();
        if (seen.trace_id == 1000 + i && seen.vehicle_id == i)
          correct.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(done_mutex);
        done.fetch_add(1, std::memory_order_relaxed);
        done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return done.load() == n; });
  }
  tracer.set_enabled(false);

  EXPECT_EQ(correct.load(), n);
  // The submitting thread's ambient context was restored each iteration.
  EXPECT_FALSE(obs::ambient_trace_context().active());
}

TEST(Deadline, RemainingGoesNegativePastDue) {
  const rt::Deadline past =
      rt::Deadline::at(rt::Deadline::Clock::now() -
                       std::chrono::milliseconds(10));
  EXPECT_TRUE(past.expired());
  EXPECT_LT(past.remaining_s(), 0.0);
  const rt::Deadline future = rt::Deadline::after_s(60.0);
  EXPECT_GT(future.remaining_s(), 0.0);
  EXPECT_LE(future.remaining_s(), 60.0);
}

TEST(Deadline, EarlierPrefersActiveAndSooner) {
  const auto now = rt::Deadline::Clock::now();
  const rt::Deadline a = rt::Deadline::at(now + std::chrono::seconds(1));
  const rt::Deadline b = rt::Deadline::at(now + std::chrono::seconds(2));
  EXPECT_EQ(rt::Deadline::earlier(a, b).time_point(), a.time_point());
  EXPECT_EQ(rt::Deadline::earlier(b, a).time_point(), a.time_point());
  EXPECT_EQ(rt::Deadline::earlier(rt::Deadline::never(), b).time_point(),
            b.time_point());
  EXPECT_FALSE(
      rt::Deadline::earlier(rt::Deadline::never(), rt::Deadline::never())
          .active());
}

}  // namespace
