#include "control/onoff_controller.hpp"

#include "util/serialize.hpp"

namespace evc::ctl {

namespace {

constexpr double kDeadbandC = 1.5;     ///< half-width of the hysteresis band
constexpr double kRecirculation = 0.5; ///< fixed damper position while running
static_assert(kDeadbandC > 0.0, "deadband must be positive");

}  // namespace

OnOffController::OnOffController(hvac::HvacParams params) : params_(params) {
  params_.validate();
}

hvac::HvacInputs OnOffController::decide(const ControlContext& context) {
  const double target = params_.target_temp_c;
  const double tz = context.cabin_temp_c;

  // Hysteresis state machine: engage outside the deadband, release when
  // the temperature crosses the target coming back.
  switch (mode_) {
    case Mode::kOff:
      if (tz > target + kDeadbandC)
        mode_ = Mode::kCooling;
      else if (tz < target - kDeadbandC)
        mode_ = Mode::kHeating;
      break;
    case Mode::kCooling:
      if (tz <= target) mode_ = Mode::kOff;
      break;
    case Mode::kHeating:
      if (tz >= target) mode_ = Mode::kOff;
      break;
  }

  hvac::HvacInputs in;
  in.recirculation = kRecirculation;
  const double tm = (1.0 - in.recirculation) * context.outside_temp_c +
                    in.recirculation * tz;
  switch (mode_) {
    case Mode::kOff:
      // Manual-A/C behaviour (i-MiEV class): the blower keeps running at
      // the user-set speed; only the coils cycle off (mixed air passes
      // straight through). This is what makes On/Off the most wasteful
      // methodology in the paper's comparison.
      in.air_flow_kg_s = params_.max_air_flow_kg_s;
      in.coil_temp_c = tm;
      in.supply_temp_c = tm;
      break;
    case Mode::kCooling:
      in.air_flow_kg_s = params_.max_air_flow_kg_s;
      in.coil_temp_c = params_.min_coil_temp_c;
      in.supply_temp_c = params_.min_coil_temp_c;  // no reheat
      break;
    case Mode::kHeating:
      in.air_flow_kg_s = params_.max_air_flow_kg_s;
      in.coil_temp_c = tm;  // cooler inactive
      in.supply_temp_c = params_.max_supply_temp_c;
      break;
  }
  return in;
}

void OnOffController::save_state(BinaryWriter& writer) const {
  writer.section("onoff");
  writer.write_u8(static_cast<std::uint8_t>(mode_));
}

void OnOffController::load_state(BinaryReader& reader) {
  reader.expect_section("onoff");
  mode_ = static_cast<Mode>(reader.read_u8());
}

}  // namespace evc::ctl
