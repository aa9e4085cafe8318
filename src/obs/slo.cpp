#include "obs/slo.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace evc::obs {

void SloWindow::push(bool is_bad) {
  if (ring.empty()) return;
  if (filled == ring.size()) {
    bad -= ring[next];
  } else {
    ++filled;
  }
  ring[next] = is_bad ? 1 : 0;
  bad += ring[next];
  next = (next + 1) % ring.size();
}

SloMonitor::SloMonitor(std::vector<SloRuleOptions> rules,
                       MetricsRegistry* registry)
    : registry_(registry) {
  rules_.reserve(rules.size());
  for (SloRuleOptions& opts : rules) {
    if (!(opts.objective > 0.0 && opts.objective < 1.0))
      throw std::invalid_argument("SLO rule '" + opts.name +
                                  "': objective must be in (0, 1)");
    if (opts.fast_window == 0 || opts.slow_window < opts.fast_window)
      throw std::invalid_argument(
          "SLO rule '" + opts.name +
          "': need fast_window >= 1 and slow_window >= fast_window");
    Rule rule;
    rule.opts = std::move(opts);
    rule.fast.ring.assign(rule.opts.fast_window, 0);
    rule.slow.ring.assign(rule.opts.slow_window, 0);
    if (registry_ != nullptr) {
      const std::string label = "{rule=" + rule.opts.name + "}";
      rule.burn_fast_gauge = registry_->gauge("slo.burn_fast" + label);
      rule.burn_slow_gauge = registry_->gauge("slo.burn_slow" + label);
      rule.firing_gauge = registry_->gauge("slo.firing" + label);
    }
    rules_.push_back(std::move(rule));
  }
  if (registry_ != nullptr) {
    fired_counter_ = registry_->counter("slo.alerts_fired");
    cleared_counter_ = registry_->counter("slo.alerts_cleared");
  }
}

double SloMonitor::burn(const SloWindow& w, const Rule& r) const {
  return w.bad_fraction() / (1.0 - r.opts.objective);
}

std::vector<SloAlert> SloMonitor::observe(std::size_t rule_index, bool bad,
                                          std::uint64_t trace_id) {
  std::vector<SloAlert> transitions;
  std::lock_guard<std::mutex> lock(mutex_);
  Rule& rule = rules_.at(rule_index);
  ++rule.samples;
  rule.fast.push(bad);
  rule.slow.push(bad);
  if (bad && trace_id != 0) rule.last_bad_trace = trace_id;

  const std::size_t min_samples = rule.opts.min_samples != 0
                                      ? rule.opts.min_samples
                                      : rule.opts.fast_window;
  const double fast = burn(rule.fast, rule);
  const double slow = burn(rule.slow, rule);
  if (registry_ != nullptr) {
    registry_->set(rule.burn_fast_gauge, fast);
    registry_->set(rule.burn_slow_gauge, slow);
    registry_->set(rule.firing_gauge, rule.firing ? 1.0 : 0.0);
  }
  if (rule.samples < min_samples) return transitions;

  const bool should_fire = fast >= rule.opts.fast_burn_threshold &&
                           slow >= rule.opts.slow_burn_threshold;
  const bool should_clear =
      fast <= rule.opts.clear_burn && slow <= rule.opts.clear_burn;
  // Hysteresis: between the fire and clear thresholds the rule holds its
  // current state, so a burn hovering at the boundary never flaps.
  if (!((!rule.firing && should_fire) || (rule.firing && should_clear)))
    return transitions;

  SloAlert alert;
  alert.rule = rule.opts.name;
  alert.fast_burn = fast;
  alert.slow_burn = slow;
  alert.sample_seq = rule.samples;
  if (!rule.firing) {
    rule.firing = true;
    alert.firing = true;
    alert.trace_id = rule.last_bad_trace;
    ++fired_;
    if (registry_ != nullptr) {
      registry_->add(fired_counter_);
      registry_->set(rule.firing_gauge, 1.0);
    }
    Tracer::global().instant("slo.alert.fire",
                             static_cast<double>(rule_index));
  } else {
    rule.firing = false;
    alert.firing = false;
    ++cleared_;
    if (registry_ != nullptr) {
      registry_->add(cleared_counter_);
      registry_->set(rule.firing_gauge, 0.0);
    }
    Tracer::global().instant("slo.alert.clear",
                             static_cast<double>(rule_index));
  }
  if (log_.size() >= kAlertLogCapacity)
    log_.erase(log_.begin());  // rare (transitions, not samples)
  log_.push_back(alert);
  transitions.push_back(std::move(alert));
  return transitions;
}

bool SloMonitor::firing(std::size_t rule) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rules_.at(rule).firing;
}

bool SloMonitor::any_firing() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(rules_.begin(), rules_.end(),
                     [](const Rule& r) { return r.firing; });
}

double SloMonitor::fast_burn(std::size_t rule) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Rule& r = rules_.at(rule);
  return burn(r.fast, r);
}

double SloMonitor::slow_burn(std::size_t rule) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Rule& r = rules_.at(rule);
  return burn(r.slow, r);
}

std::vector<SloAlert> SloMonitor::alerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::uint64_t SloMonitor::alerts_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

std::uint64_t SloMonitor::alerts_cleared() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cleared_;
}

}  // namespace evc::obs
