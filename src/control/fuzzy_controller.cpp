#include "control/fuzzy_controller.hpp"

#include <algorithm>
#include <cmath>

#include "util/serialize.hpp"

namespace evc::ctl {

namespace {

constexpr double kErrorRangeC = 3.0;       ///< error normalization span
constexpr double kErrorRateRangeCS = 0.1;  ///< derivative normalization span
constexpr double kRecirculation = 0.5;     ///< fixed damper position
/// Integral trim gain (1/(°C·s)): the fuzzy PD surface alone leaves a
/// steady-state offset against sustained thermal loads; the paper's
/// baseline is fuzzy *on a PID substrate*, so a slow integral term
/// removes the offset. Anti-windup clamps the trim to ±1.
constexpr double kIntegralGain = 0.005;
static_assert(kErrorRangeC > 0.0, "error range must be positive");
static_assert(kErrorRateRangeCS > 0.0, "error rate range must be positive");

/// Five symmetric triangular sets NB, NS, ZE, PS, PB over [−1, 1].
std::vector<MembershipFunction> five_sets() {
  return {
      MembershipFunction("NB", -1.0, -1.0, -1.0, -0.5),
      MembershipFunction::triangle("NS", -1.0, -0.5, 0.0),
      MembershipFunction::triangle("ZE", -0.5, 0.0, 0.5),
      MembershipFunction::triangle("PS", 0.0, 0.5, 1.0),
      MembershipFunction("PB", 0.5, 1.0, 1.0, 1.0),
  };
}

std::vector<FuzzyRule> pd_rule_base() {
  // Standard 5×5 anti-diagonal PD surface: hot cabin (positive error)
  // commands cooling (negative u), and the error rate shifts the verdict
  // one set in the damping direction.
  std::vector<FuzzyRule> rules;
  for (std::size_t e = 0; e < 5; ++e) {
    for (std::size_t de = 0; de < 5; ++de) {
      const int s = (static_cast<int>(e) - 2) + (static_cast<int>(de) - 2);
      const int out = std::clamp(2 - s, 0, 4);
      rules.push_back(FuzzyRule{{e, de}, static_cast<std::size_t>(out)});
    }
  }
  return rules;
}

}  // namespace

FuzzyController::FuzzyController(hvac::HvacParams params) : params_(params) {
  params_.validate();
  std::vector<LinguisticVariable> inputs{
      LinguisticVariable("error", five_sets()),
      LinguisticVariable("error_rate", five_sets()),
  };
  inference_ = std::make_unique<FuzzyInference>(
      std::move(inputs), LinguisticVariable("command", five_sets()),
      pd_rule_base());
}

double FuzzyController::command(double error_c, double error_rate_c_s) const {
  const double e = std::clamp(error_c / kErrorRangeC, -1.0, 1.0);
  const double de = std::clamp(error_rate_c_s / kErrorRateRangeCS, -1.0, 1.0);
  return std::clamp(inference_->infer({e, de}), -1.0, 1.0);
}

hvac::HvacInputs FuzzyController::decide(const ControlContext& context) {
  const double error = context.cabin_temp_c - params_.target_temp_c;
  const double rate =
      has_prev_ ? (error - prev_error_) / context.dt_s : 0.0;
  prev_error_ = error;
  has_prev_ = true;

  // Slow integral trim removes the PD surface's steady-state offset
  // (negative error integral commands heating, positive cooling).
  integral_trim_ = std::clamp(
      integral_trim_ - kIntegralGain * error * context.dt_s, -1.0, 1.0);
  const double u = std::clamp(command(error, rate) + integral_trim_, -1.0,
                              1.0);

  hvac::HvacInputs in;
  in.recirculation = kRecirculation;
  const double tm = (1.0 - in.recirculation) * context.outside_temp_c +
                    in.recirculation * context.cabin_temp_c;
  // Demand-scheduled flow: idle ventilation near zero command, full flow at
  // full command.
  in.air_flow_kg_s =
      params_.min_air_flow_kg_s +
      std::abs(u) * (params_.max_air_flow_kg_s - params_.min_air_flow_kg_s);
  if (u >= 0.0) {
    // Heating: cooler pass-through, heater raises supply air.
    in.coil_temp_c = tm;
    in.supply_temp_c = tm + u * (params_.max_supply_temp_c - tm);
  } else {
    // Cooling: no reheat, coil temperature dives toward its limit.
    in.coil_temp_c = tm + (-u) * (params_.min_coil_temp_c - tm);
    in.supply_temp_c = in.coil_temp_c;
  }
  return in;
}

void FuzzyController::reset() {
  prev_error_ = 0.0;
  has_prev_ = false;
  integral_trim_ = 0.0;
}

void FuzzyController::save_state(BinaryWriter& writer) const {
  writer.section("fuzzy");
  writer.write_f64(prev_error_);
  writer.write_bool(has_prev_);
  writer.write_f64(integral_trim_);
}

void FuzzyController::load_state(BinaryReader& reader) {
  reader.expect_section("fuzzy");
  prev_error_ = reader.read_f64();
  has_prev_ = reader.read_bool();
  integral_trim_ = reader.read_f64();
}

}  // namespace evc::ctl
