// Multi-window burn-rate SLO monitor (Google SRE workbook style).
//
// An SLO is a good-fraction objective over a stream of request outcomes
// ("99 % of steps under the latency SLO", "99.9 % of submissions neither
// shed nor late"). The *burn rate* of a window is how fast that window is
// consuming the error budget:
//
//     burn = bad_fraction / (1 − objective)
//
// burn = 1 means "exactly sustainable"; burn = 14.4 over a 5-minute window
// is the classic "page now" threshold (budget gone in ~2 days). A single
// window either pages late (long window) or flaps on noise (short window),
// so a rule fires only when a FAST and a SLOW window are both burning past
// their thresholds, and clears — with hysteresis — only when both have
// fallen back to a sustainable rate.
//
// Windows here are counted in *samples*, not wall seconds: the service
// calls observe() once per request outcome, which makes rules deterministic
// under test and load-proportional in production (the 5 m/1 h analogue at a
// given request rate is documented in OBSERVABILITY.md). Transitions are
// returned to the caller (the service dumps the flight recorder and tags
// the alert with the triggering request's trace id), appended to a bounded
// alert log, emitted as slo.alert.* trace instants, and mirrored into
// slo.* gauges/counters for the exporter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace evc::obs {

struct SloRuleOptions {
  /// Rule name; appears in alerts and as the {rule=...} label on metrics.
  std::string name = "slo";
  /// Good-fraction objective in (0, 1), e.g. 0.99 for a p99-style SLO.
  double objective = 0.99;
  /// Fast window (samples): detects an acute burn quickly.
  std::size_t fast_window = 64;
  /// Slow window (samples): confirms the burn is sustained, not a blip.
  std::size_t slow_window = 512;
  /// Fire when fast-window burn ≥ this AND slow-window burn ≥ its
  /// threshold. 14.4/6 are the SRE-workbook paging pair.
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
  /// Clear only when BOTH burns ≤ this (hysteresis; 1.0 = sustainable).
  double clear_burn = 1.0;
  /// No verdicts before this many samples (0 ⇒ fast_window).
  std::size_t min_samples = 0;
};

/// Fixed-size good/bad ring with an O(1) running bad count: the windowed
/// primitive under every SLO rule, and under svc::LoadGovernor, whose
/// p99-vs-threshold tests are counts of window samples past a threshold.
/// Size `ring` to the window length before the first push; an empty ring
/// ignores pushes.
struct SloWindow {
  std::vector<std::uint8_t> ring;
  std::size_t next = 0;
  std::size_t filled = 0;
  std::size_t bad = 0;

  void push(bool is_bad);
  double bad_fraction() const {
    return filled == 0 ? 0.0
                       : static_cast<double>(bad) /
                             static_cast<double>(filled);
  }
};

/// One fire/clear transition. `firing` distinguishes the two; `trace_id`
/// is the last bad sample's request trace (0 when tracing is off).
struct SloAlert {
  std::string rule;
  bool firing = false;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::uint64_t sample_seq = 0;  ///< rule samples seen at the transition
  std::uint64_t trace_id = 0;
};

class SloMonitor {
 public:
  static constexpr std::size_t kAlertLogCapacity = 256;

  explicit SloMonitor(std::vector<SloRuleOptions> rules,
                      MetricsRegistry* registry = nullptr);

  /// Feed one outcome to `rule`. Returns the transitions this sample
  /// caused (usually empty; at most one). Thread-safe.
  std::vector<SloAlert> observe(std::size_t rule, bool bad,
                                std::uint64_t trace_id = 0);

  bool firing(std::size_t rule) const;
  bool any_firing() const;
  /// Burn rates of the rule's fast/slow windows right now.
  double fast_burn(std::size_t rule) const;
  double slow_burn(std::size_t rule) const;

  /// Most recent transitions, oldest first (bounded ring of
  /// kAlertLogCapacity).
  std::vector<SloAlert> alerts() const;
  std::uint64_t alerts_fired() const;
  std::uint64_t alerts_cleared() const;

 private:
  struct Rule {
    SloRuleOptions opts;
    SloWindow fast;
    SloWindow slow;
    bool firing = false;
    std::uint64_t samples = 0;
    std::uint64_t last_bad_trace = 0;
    MetricsRegistry::Id burn_fast_gauge = 0;
    MetricsRegistry::Id burn_slow_gauge = 0;
    MetricsRegistry::Id firing_gauge = 0;
  };

  double burn(const SloWindow& w, const Rule& r) const;

  mutable std::mutex mutex_;
  std::vector<Rule> rules_;
  std::vector<SloAlert> log_;
  std::uint64_t fired_ = 0;
  std::uint64_t cleared_ = 0;
  MetricsRegistry* registry_ = nullptr;
  MetricsRegistry::Id fired_counter_ = 0;
  MetricsRegistry::Id cleared_counter_ = 0;
};

}  // namespace evc::obs
