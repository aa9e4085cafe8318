#include "svc/governor.hpp"

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace evc::svc {

LoadGovernor::LoadGovernor(GovernorOptions options) : options_(options) {
  if (enabled()) {
    EVC_EXPECT(options_.window >= 2, "governor window too small");
    EVC_EXPECT(options_.min_samples >= 1, "governor min_samples must be >= 1");
    EVC_EXPECT(options_.min_samples <= options_.window,
               "governor min_samples exceeds its window: it would never act");
    EVC_EXPECT(options_.evaluate_every >= 1,
               "governor evaluate_every must be >= 1");
    EVC_EXPECT(options_.promote_watermark < options_.demote_watermark,
               "governor watermarks leave no hysteresis band");
    EVC_EXPECT(options_.demote_watermark > 0.0 &&
                   options_.promote_watermark > 0.0,
               "governor watermarks must be positive");
    hot_.ring.assign(options_.window, 0);
    warm_.ring.assign(options_.window, 0);
  }
}

void LoadGovernor::observe_s(double step_latency_s) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  hot_.push(step_latency_s >= options_.demote_watermark * options_.slo_p99_s);
  warm_.push(step_latency_s >
             options_.promote_watermark * options_.slo_p99_s);
  ++stats_.samples;
  ++since_change_;
  if (++since_eval_ >= options_.evaluate_every) {
    since_eval_ = 0;
    evaluate_locked();
  }
}

void LoadGovernor::evaluate_locked() {
  if (hot_.filled < options_.min_samples) return;
  auto& reg = obs::MetricsRegistry::global();
  static const struct {
    obs::MetricsRegistry::Id demotions;
    obs::MetricsRegistry::Id promotions;
    obs::MetricsRegistry::Id floor_gauge;
    obs::MetricsRegistry::Id hot_share_gauge;
  } ids{reg.counter("svc.governor.demotions"),
        reg.counter("svc.governor.promotions"),
        reg.gauge("svc.governor.floor"), reg.gauge("svc.governor.hot_share")};
  stats_.last_hot_share = hot_.bad_fraction();
  reg.set(ids.hot_share_gauge, stats_.last_hot_share);

  // The nearest-rank p99 of n samples is their ⌈n/100⌉-th largest: it is
  // ≥ the demote threshold exactly when `tail` samples are, and ≤ the
  // promote threshold exactly when fewer than `tail` samples exceed it.
  const std::size_t tail = (hot_.filled + 99) / 100;
  const std::size_t floor_now = floor_.load(std::memory_order_relaxed);
  std::size_t floor_next = floor_now;
  if (hot_.bad >= tail && floor_now < options_.max_floor) {
    floor_next = floor_now + 1;
    ++stats_.demotions;
    reg.add(ids.demotions);
  } else if (warm_.bad < tail && floor_now > 0 &&
             since_change_ >= options_.promote_hold) {
    floor_next = floor_now - 1;
    ++stats_.promotions;
    reg.add(ids.promotions);
  } else {
    return;
  }
  floor_.store(floor_next, std::memory_order_relaxed);
  since_change_ = 0;
  reg.set(ids.floor_gauge, static_cast<double>(floor_next));
}

GovernorStats LoadGovernor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace evc::svc
