// Monotonic-clock deadline shared by every wall-clock watchdog in the
// stack: the QP/SQP `time_budget_s` guards, the supervisor's per-step
// deadline, and the session service's per-request scheduling.
//
// The repo used to repeat the same std::chrono arithmetic at each call
// site (duration<double> → steady_clock::duration cast, an `active` bool
// riding alongside the time_point). This type folds both into one value
// with two deliberate conventions:
//
//   * expiry is inclusive: a deadline constructed `at(now)` or
//     `after_s(0.0)` is already expired — "you had zero budget" means the
//     first check fails, never "one free iteration";
//   * an inactive deadline (default-constructed, `never()`, or
//     `from_budget_s(x)` with x <= 0, matching the `time_budget_s = 0
//     disables the watchdog` contract) never expires and reports infinite
//     remaining time, so call sites need no separate `active` flag.
//
// Header-only on purpose: evc_optim consumes it without linking
// evc_runtime.
#pragma once

#include <chrono>
#include <limits>

namespace evc::rt {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Inactive: never expires.
  Deadline() = default;

  /// Inactive deadline, spelled out.
  static Deadline never() { return Deadline{}; }

  /// Expires exactly at `tp` (inclusive: expired(tp) is true).
  static Deadline at(Clock::time_point tp) { return Deadline(tp); }

  /// Expires `seconds` from now. Negative budgets clamp to "expired
  /// immediately"; zero means zero — already expired.
  static Deadline after_s(double seconds) {
    if (seconds < 0.0) seconds = 0.0;
    return Deadline(Clock::now() + to_duration(seconds));
  }

  /// The `time_budget_s` contract of SqpOptions: a
  /// positive budget arms the deadline, zero or negative disables it.
  static Deadline from_budget_s(double budget_s) {
    return budget_s > 0.0 ? after_s(budget_s) : never();
  }

  bool active() const { return active_; }

  /// True once the clock reaches the deadline (inclusive). Inactive
  /// deadlines never expire.
  bool expired() const { return active_ && Clock::now() >= at_; }
  bool expired(Clock::time_point now) const { return active_ && now >= at_; }

  /// Seconds until expiry: negative once past due, +infinity when
  /// inactive.
  double remaining_s() const {
    if (!active_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

  /// The expiry instant (meaningless unless active()).
  Clock::time_point time_point() const { return at_; }

  /// The earlier of two deadlines; inactive ones lose to active ones.
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    if (!a.active_) return b;
    if (!b.active_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  explicit Deadline(Clock::time_point tp) : at_(tp), active_(true) {}

  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  Clock::time_point at_{};
  bool active_ = false;
};

}  // namespace evc::rt
