#include "control/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/serialize.hpp"

namespace evc::ctl {

namespace {

/// Plausibility range for temperature sensors (°C); values outside are
/// clamped and counted.
constexpr double kMinTempC = -60.0;
constexpr double kMaxTempC = 90.0;
static_assert(kMinTempC < kMaxTempC, "sanitation temperature range is empty");

/// Repair one scalar: non-finite → fallback; out of [lo, hi] → clamp.
/// Returns true when the value was rewritten.
bool repair(double& value, double fallback, double lo, double hi) {
  if (!std::isfinite(value)) {
    value = std::clamp(fallback, lo, hi);
    return true;
  }
  if (value < lo || value > hi) {
    value = std::clamp(value, lo, hi);
    return true;
  }
  return false;
}

}  // namespace

SupervisedController::SupervisedController(
    std::vector<std::unique_ptr<ClimateController>> tiers,
    hvac::HvacParams params, SupervisorOptions options)
    : tiers_(std::move(tiers)), params_(params), options_(options) {
  params_.validate();
  EVC_EXPECT(!tiers_.empty(), "supervisor needs at least one tier");
  for (const auto& tier : tiers_)
    EVC_EXPECT(tier != nullptr, "supervisor tier must not be null");
  EVC_EXPECT(options_.promote_after >= 1,
             "promotion hysteresis must be at least one step");
  EVC_EXPECT(options_.step_deadline_s >= 0.0,
             "step deadline must be >= 0");
  stats_.tier_steps.assign(num_tiers(), 0);
  if (options_.fdi.enabled)
    fdi_ = std::make_unique<fdi::SensorFdi>(options_.fdi, params_);
}

std::string SupervisedController::name() const {
  return "Supervised " + tiers_.front()->name();
}

std::string SupervisedController::tier_name(std::size_t i) const {
  if (i >= tiers_.size()) return "safe-hold";
  return tiers_[i]->name();
}

void SupervisedController::set_tier_floor(std::size_t floor) {
  tier_floor_ = std::min(floor, tiers_.size());  // tiers_.size() = safe-hold
  if (current_tier_ < tier_floor_) {
    current_tier_ = tier_floor_;
    healthy_streak_ = 0;
    ++stats_.forced_demotions;
  }
}

void SupervisedController::reset() {
  for (auto& tier : tiers_) tier->reset();
  stats_ = SupervisorStats{};
  stats_.tier_steps.assign(num_tiers(), 0);
  current_tier_ = 0;
  last_applied_tier_ = 0;
  healthy_streak_ = 0;
  tier_floor_ = 0;
  have_last_good_ = false;
  have_safe_output_ = false;
  cabin_hold_age_ = 0;
  outside_hold_age_ = 0;
  soc_hold_age_ = 0;
  if (fdi_) fdi_->reset();
}

ControlContext SupervisedController::sanitize(const ControlContext& context) {
  ControlContext clean = context;
  std::size_t repaired = 0;

  // Scalars: last-good-value hold for sensor silence, plausibility clamp
  // for wild-but-finite readings. Before any good sample exists the comfort
  // target / a mid-range SoC stand in.
  const double cabin_fb =
      have_last_good_ ? last_good_cabin_c_ : params_.target_temp_c;
  const double outside_fb =
      have_last_good_ ? last_good_outside_c_ : params_.target_temp_c;
  const double soc_fb = have_last_good_ ? last_good_soc_ : 50.0;
  const bool cabin_finite = std::isfinite(clean.cabin_temp_c);
  const bool outside_finite = std::isfinite(clean.outside_temp_c);
  const bool soc_finite = std::isfinite(clean.soc_percent);
  repaired += repair(clean.cabin_temp_c, cabin_fb, kMinTempC, kMaxTempC);
  repaired += repair(clean.outside_temp_c, outside_fb, kMinTempC, kMaxTempC);
  repaired += repair(clean.soc_percent, soc_fb, 0.0, 100.0);

  // Hold aging for the max_hold_steps escalation: only a silent sensor
  // (non-finite reading repaired by the hold) ages; any finite reading —
  // even one that needed clamping — resets the age.
  cabin_hold_age_ = cabin_finite ? 0 : cabin_hold_age_ + 1;
  outside_hold_age_ = outside_finite ? 0 : outside_hold_age_ + 1;
  soc_hold_age_ = soc_finite ? 0 : soc_hold_age_ + 1;

  // dt must stay positive or downstream rate computations divide by zero.
  if (!std::isfinite(clean.dt_s) || clean.dt_s <= 0.0) {
    clean.dt_s = 1.0;
    ++repaired;
  }
  if (!std::isfinite(clean.time_s)) {
    clean.time_s = 0.0;
    ++repaired;
  }

  // Forecasts: a corrupted entry falls back to the (sanitized) current
  // value — zero extra power, current ambient — rather than poisoning the
  // whole MPC window.
  for (double& p : clean.motor_power_forecast_w)
    if (!std::isfinite(p)) {
      p = 0.0;
      ++repaired;
    }
  for (double& temp : clean.outside_temp_forecast_c)
    repaired += repair(temp, clean.outside_temp_c, kMinTempC, kMaxTempC);

  have_last_good_ = true;
  last_good_cabin_c_ = clean.cabin_temp_c;
  last_good_outside_c_ = clean.outside_temp_c;
  last_good_soc_ = clean.soc_percent;

  if (repaired > 0) {
    ++stats_.sanitized_steps;
    stats_.sanitized_values += repaired;
  }
  return clean;
}

bool SupervisedController::output_ok(const hvac::HvacInputs& in) const {
  // The actuator box, with a hair of slack for soft-constrained solver
  // iterates: C1 flow, C6 supply ceiling, C7 damper range. Coil and supply
  // temperatures are bounded by physical plausibility rather than the C5
  // frost limit: a pass-through coil legitimately reads below 4 °C in cold
  // ambient (the plant clamps against the mixed temperature itself).
  constexpr double kEps = 1e-6;
  if (!std::isfinite(in.supply_temp_c) || !std::isfinite(in.coil_temp_c) ||
      !std::isfinite(in.recirculation) || !std::isfinite(in.air_flow_kg_s))
    return false;
  if (in.air_flow_kg_s < params_.min_air_flow_kg_s - kEps ||
      in.air_flow_kg_s > params_.max_air_flow_kg_s + kEps)
    return false;
  if (in.recirculation < -kEps ||
      in.recirculation > params_.max_recirculation + kEps)
    return false;
  if (in.supply_temp_c > params_.max_supply_temp_c + kEps ||
      in.supply_temp_c < kMinTempC)
    return false;
  if (in.coil_temp_c < kMinTempC || in.coil_temp_c > kMaxTempC)
    return false;
  return true;
}

hvac::HvacInputs SupervisedController::safe_hold(
    const ControlContext& context) const {
  if (have_safe_output_) return last_safe_output_;
  // No trusted actuation yet: minimum ventilation, coils pass-through.
  hvac::HvacInputs in;
  in.recirculation = 0.5;
  const double tm = (1.0 - in.recirculation) * context.outside_temp_c +
                    in.recirculation * context.cabin_temp_c;
  in.air_flow_kg_s = params_.min_air_flow_kg_s;
  in.coil_temp_c = std::clamp(tm, params_.min_coil_temp_c,
                              params_.max_supply_temp_c);
  in.supply_temp_c = in.coil_temp_c;
  return in;
}

hvac::HvacInputs SupervisedController::decide(const ControlContext& context) {
  using Clock = std::chrono::steady_clock;
  EVC_TRACE_SPAN_VAR(step_span, "supervisor.step");
  static const struct {
    obs::MetricsRegistry::Id demotions;
    obs::MetricsRegistry::Id promotions;
    obs::MetricsRegistry::Id deadline_misses;
  } metric_ids{
      obs::MetricsRegistry::global().counter("supervisor.demotions"),
      obs::MetricsRegistry::global().counter("supervisor.promotions"),
      obs::MetricsRegistry::global().counter("supervisor.deadline_misses")};
  ++stats_.steps;

  // FDIR first, on the *raw* context: residual detection must see exactly
  // what the sensor emitted (NaNs and wild values included). Trusted
  // sensors pass through bit-for-bit; isolated ones are replaced by live
  // virtual-sensor estimates, which keeps the sanitizer's hold from aging.
  ControlContext viewed = context;
  if (fdi_) {
    const fdi::FdiFrame frame = fdi_->assess(context);
    viewed.cabin_temp_c = frame.cabin_temp_c;
    viewed.outside_temp_c = frame.outside_temp_c;
    viewed.soc_percent = frame.soc_percent;
    if (frame.any_substituted()) ++stats_.fdi_substituted_steps;
  }
  const ControlContext clean = sanitize(viewed);

  // A hold that outlived its budget tracks nothing — no controller should
  // act on it. Skip the tier chain entirely and actuate safe-hold.
  const bool hold_expired =
      options_.max_hold_steps > 0 &&
      (cabin_hold_age_ > options_.max_hold_steps ||
       outside_hold_age_ > options_.max_hold_steps ||
       soc_hold_age_ > options_.max_hold_steps);
  if (hold_expired) ++stats_.hold_expirations;

  const std::size_t safe_tier = tiers_.size();
  hvac::HvacInputs output;
  std::size_t applied = safe_tier;
  bool applied_healthy_controller = false;

  for (std::size_t tier = current_tier_;
       !hold_expired && tier < tiers_.size(); ++tier) {
    const Clock::time_point t0 = Clock::now();
    hvac::HvacInputs candidate = tiers_[tier]->decide(clean);
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    bool healthy = true;
    if (options_.step_deadline_s > 0.0 &&
        elapsed_s > options_.step_deadline_s) {
      ++stats_.deadline_misses;
      obs::MetricsRegistry::global().add(metric_ids.deadline_misses);
      healthy = false;
    }
    if (tiers_[tier]->last_health().degraded) {
      ++stats_.health_degradations;
      healthy = false;
    }
    if (!output_ok(candidate)) {
      ++stats_.invalid_outputs;
      healthy = false;
    }
    if (healthy) {
      output = candidate;
      applied = tier;
      applied_healthy_controller = true;
      break;
    }
  }

  if (!applied_healthy_controller) {
    output = safe_hold(clean);
    applied = safe_tier;
  }

  // Terminal guarantee: whatever produced the actuation, what leaves the
  // supervisor is finite and inside the box. The clamp only rewrites values
  // output_ok() already rejected (safe-hold's synthesized inputs pass by
  // construction), so a healthy tier's bytes are untouched.
  if (!output_ok(output)) {
    ++stats_.output_clamps;
    hvac::HvacInputs safe = safe_hold(clean);
    const auto pick = [](double v, double lo, double hi, double fb) {
      return std::isfinite(v) ? std::clamp(v, lo, hi) : fb;
    };
    output.air_flow_kg_s =
        pick(output.air_flow_kg_s, params_.min_air_flow_kg_s,
             params_.max_air_flow_kg_s, safe.air_flow_kg_s);
    output.recirculation = pick(output.recirculation, 0.0,
                                params_.max_recirculation, safe.recirculation);
    output.supply_temp_c = pick(output.supply_temp_c, kMinTempC,
                                params_.max_supply_temp_c, safe.supply_temp_c);
    output.coil_temp_c = pick(output.coil_temp_c, params_.min_coil_temp_c,
                              kMaxTempC, safe.coil_temp_c);
  }

  // Tier bookkeeping: demote immediately to whichever tier actually
  // actuated; promote one level only after a healthy streak (hysteresis).
  stats_.tier_steps[applied] += 1;
  last_applied_tier_ = applied;
  if (applied > current_tier_) {
    stats_.demotions += 1;
    obs::MetricsRegistry::global().add(metric_ids.demotions);
    EVC_TRACE_INSTANT("supervisor.demotion");
    current_tier_ = applied;
    healthy_streak_ = 0;
  } else {
    ++healthy_streak_;
    if (current_tier_ > tier_floor_ &&
        healthy_streak_ >= options_.promote_after) {
      stats_.promotions += 1;
      obs::MetricsRegistry::global().add(metric_ids.promotions);
      EVC_TRACE_INSTANT("supervisor.promotion");
      current_tier_ -= 1;
      healthy_streak_ = 0;
    }
  }
  step_span.arg("tier", static_cast<double>(applied));

  have_safe_output_ = true;
  last_safe_output_ = output;
  // Arm the FDIR layer's next-step model predictions with the actuation
  // that actually left the supervisor.
  if (fdi_) fdi_->commit(output);
  return output;
}

namespace {

void save_hvac_inputs(BinaryWriter& w, const hvac::HvacInputs& in) {
  w.write_f64(in.supply_temp_c);
  w.write_f64(in.coil_temp_c);
  w.write_f64(in.recirculation);
  w.write_f64(in.air_flow_kg_s);
}

void load_hvac_inputs(BinaryReader& r, hvac::HvacInputs& in) {
  in.supply_temp_c = r.read_f64();
  in.coil_temp_c = r.read_f64();
  in.recirculation = r.read_f64();
  in.air_flow_kg_s = r.read_f64();
}

}  // namespace

void SupervisedController::save_state(BinaryWriter& writer) const {
  writer.section("supervisor");
  writer.write_size(current_tier_);
  writer.write_size(last_applied_tier_);
  writer.write_size(healthy_streak_);
  writer.write_bool(have_last_good_);
  writer.write_f64(last_good_cabin_c_);
  writer.write_f64(last_good_outside_c_);
  writer.write_f64(last_good_soc_);
  writer.write_bool(have_safe_output_);
  save_hvac_inputs(writer, last_safe_output_);
  writer.write_size(cabin_hold_age_);
  writer.write_size(outside_hold_age_);
  writer.write_size(soc_hold_age_);
  writer.write_size(tier_floor_);

  writer.section("supervisor_stats");
  writer.write_size(stats_.steps);
  writer.write_size(stats_.sanitized_steps);
  writer.write_size(stats_.sanitized_values);
  writer.write_size(stats_.deadline_misses);
  writer.write_size(stats_.health_degradations);
  writer.write_size(stats_.invalid_outputs);
  writer.write_size(stats_.output_clamps);
  writer.write_size(stats_.demotions);
  writer.write_size(stats_.promotions);
  writer.write_size(stats_.hold_expirations);
  writer.write_size(stats_.fdi_substituted_steps);
  writer.write_size(stats_.forced_demotions);
  writer.write_size_vec(stats_.tier_steps);

  writer.write_bool(fdi_ != nullptr);
  if (fdi_) fdi_->save_state(writer);

  writer.write_size(tiers_.size());
  for (const auto& tier : tiers_) tier->save_state(writer);
}

void SupervisedController::load_state(BinaryReader& reader) {
  reader.expect_section("supervisor");
  current_tier_ = reader.read_size();
  last_applied_tier_ = reader.read_size();
  healthy_streak_ = reader.read_size();
  have_last_good_ = reader.read_bool();
  last_good_cabin_c_ = reader.read_f64();
  last_good_outside_c_ = reader.read_f64();
  last_good_soc_ = reader.read_f64();
  have_safe_output_ = reader.read_bool();
  load_hvac_inputs(reader, last_safe_output_);
  cabin_hold_age_ = reader.read_size();
  outside_hold_age_ = reader.read_size();
  soc_hold_age_ = reader.read_size();
  tier_floor_ = reader.read_size();

  reader.expect_section("supervisor_stats");
  stats_.steps = reader.read_size();
  stats_.sanitized_steps = reader.read_size();
  stats_.sanitized_values = reader.read_size();
  stats_.deadline_misses = reader.read_size();
  stats_.health_degradations = reader.read_size();
  stats_.invalid_outputs = reader.read_size();
  stats_.output_clamps = reader.read_size();
  stats_.demotions = reader.read_size();
  stats_.promotions = reader.read_size();
  stats_.hold_expirations = reader.read_size();
  stats_.fdi_substituted_steps = reader.read_size();
  stats_.forced_demotions = reader.read_size();
  stats_.tier_steps = reader.read_size_vec();

  const bool had_fdi = reader.read_bool();
  if (had_fdi != (fdi_ != nullptr))
    throw SerializationError("supervisor FDI configuration mismatch");
  if (fdi_) fdi_->load_state(reader);

  if (reader.read_size() != tiers_.size())
    throw SerializationError("supervisor tier count mismatch");
  for (auto& tier : tiers_) tier->load_state(reader);
}

void SupervisedController::fill_flight_record(
    obs::FlightRecord& record) const {
  record.tier = static_cast<std::uint32_t>(last_applied_tier_);
  if (fdi_) {
    record.cabin_health = static_cast<std::uint8_t>(fdi_->cabin_health());
    record.outside_health = static_cast<std::uint8_t>(fdi_->outside_health());
    record.soc_health = static_cast<std::uint8_t>(fdi_->soc_health());
  }
  if (last_applied_tier_ < tiers_.size())
    tiers_[last_applied_tier_]->fill_flight_record(record);
}

PidClimateController::PidClimateController(hvac::HvacParams params)
    : params_(params),
      pid_(PidGains{.kp = 0.6, .ki = 0.02, .kd = 0.0, .output_min = -1.0,
                    .output_max = 1.0}) {
  params_.validate();
}

hvac::HvacInputs PidClimateController::decide(const ControlContext& context) {
  // Positive error (cold cabin) commands heating (u > 0).
  const double error = params_.target_temp_c - context.cabin_temp_c;
  const double u = pid_.update(error, context.dt_s);

  hvac::HvacInputs in;
  in.recirculation = 0.5;
  const double tm = (1.0 - in.recirculation) * context.outside_temp_c +
                    in.recirculation * context.cabin_temp_c;
  in.air_flow_kg_s =
      params_.min_air_flow_kg_s +
      std::abs(u) * (params_.max_air_flow_kg_s - params_.min_air_flow_kg_s);
  if (u >= 0.0) {
    in.coil_temp_c = std::max(tm, params_.min_coil_temp_c);
    in.supply_temp_c = in.coil_temp_c +
                       u * (params_.max_supply_temp_c - in.coil_temp_c);
  } else {
    in.coil_temp_c = tm + (-u) * (params_.min_coil_temp_c - tm);
    in.coil_temp_c = std::max(in.coil_temp_c, params_.min_coil_temp_c);
    in.supply_temp_c = in.coil_temp_c;  // no reheat
  }
  in.supply_temp_c = std::min(in.supply_temp_c, params_.max_supply_temp_c);
  return in;
}

}  // namespace evc::ctl
