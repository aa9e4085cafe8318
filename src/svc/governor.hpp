// Load governor: p99-vs-SLO admission of optimizer effort.
//
// The session service promises a step-latency SLO while the cost of a step
// varies by two orders of magnitude across the supervisor's degradation
// chain (full MPC → relaxed MPC → PID → On/Off → safe-hold). The governor
// closes that loop: it watches a sliding window of recent step latencies
// and raises or lowers a *tier floor* — the cheapest tier the service is
// currently willing to run — that the per-request scheduler feeds into
// ctl::SupervisedController::set_tier_floor().
//
//   demote:  p99 ≥ kDemoteWatermark · SLO  → floor += 1 (toward cheaper
//            tiers), immediately re-evaluated only after fresh samples;
//   promote: p99 ≤ kPromoteWatermark · SLO *and* at least promote_hold
//            samples since the last change → floor −= 1.
//
// The p99 is the nearest-rank one over the window, but it is never
// computed: over n samples it is ≥ T exactly when at least ⌈n/100⌉ samples
// are ≥ T, and ≤ T exactly when fewer than ⌈n/100⌉ samples are > T. Two
// obs::SloWindow counts — samples at or above the demote threshold, and
// samples above the promote threshold — turn each verdict into one integer
// comparison, at O(1) per sample and without storing a latency.
//
// The watermark gap plus the promote hold is the hysteresis: a service
// hovering at the SLO boundary demotes once and stays demoted until the
// tail has convincingly recovered, instead of flapping at the sample rate.
// slo_p99_s = 0 disables the governor entirely (floor pinned at 0) — the
// deterministic byte-identity cohorts in the soak bench rely on that.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>

#include "obs/slo.hpp"

namespace evc::svc {

/// Demote when p99 ≥ kDemoteWatermark · slo_p99_s.
inline constexpr double kDemoteWatermark = 0.90;
/// Promote only when p99 ≤ kPromoteWatermark · slo_p99_s.
inline constexpr double kPromoteWatermark = 0.60;
static_assert(kPromoteWatermark < kDemoteWatermark,
              "governor watermarks leave no hysteresis band");
static_assert(kDemoteWatermark > 0.0 && kPromoteWatermark > 0.0,
              "governor watermarks must be positive");

struct GovernorOptions {
  /// Step-latency SLO the p99 is held against (s). 0 disables the governor.
  double slo_p99_s = 0.0;
  /// Sliding window of step-latency samples the p99 is taken over.
  std::size_t window = 512;
  /// No verdicts before this many samples exist (cold-start guard); at
  /// most `window`, which is all the window can ever hold.
  std::size_t min_samples = 64;
  /// Reach a verdict every this many samples. This spaces the floor's
  /// moves: a window that stays hot demotes one tier per evaluate_every
  /// samples, so each tier gets fresh samples before the next is tried.
  std::size_t evaluate_every = 32;
  /// Samples that must pass after any floor change before a promotion —
  /// the recovery side of the hysteresis.
  std::size_t promote_hold = 128;
  /// Deepest floor the governor may impose (index into the supervisor
  /// chain; keep it short of safe-hold so load alone never parks sessions
  /// on the do-nothing tier).
  std::size_t max_floor = 3;
};

struct GovernorStats {
  std::size_t demotions = 0;
  std::size_t promotions = 0;
  std::size_t samples = 0;
  /// Share of window samples at or above the demote threshold at the last
  /// verdict; the p99 sits there once it reaches ⌈n/100⌉ of n samples.
  double last_hot_share = 0.0;
};

class LoadGovernor {
 public:
  explicit LoadGovernor(GovernorOptions options);

  bool enabled() const { return options_.slo_p99_s > 0.0; }

  /// Record one step latency and possibly move the floor. Thread-safe;
  /// called by every shard pump.
  void observe_s(double step_latency_s);

  /// Current tier floor — lock-free, read on every request.
  std::size_t floor() const {
    return floor_.load(std::memory_order_relaxed);
  }

  GovernorStats stats() const;
  const GovernorOptions& options() const { return options_; }

 private:
  void evaluate_locked();

  GovernorOptions options_;
  std::atomic<std::size_t> floor_{0};

  mutable std::mutex mutex_;
  obs::SloWindow hot_;   ///< marks samples ≥ kDemoteWatermark · slo_p99_s
  obs::SloWindow warm_;  ///< marks samples > kPromoteWatermark · slo_p99_s
  std::size_t since_eval_ = 0;
  std::size_t since_change_ = 0;
  GovernorStats stats_;
};

}  // namespace evc::svc
