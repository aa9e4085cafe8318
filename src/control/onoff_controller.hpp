// Switching On/Off climate control — the first state-of-the-art baseline
// (paper refs [8][9]: i-MiEV air-conditioning system; Montgomery,
// Fundamentals of HVAC control systems).
//
// Classic thermostat hysteresis: when the cabin temperature leaves the
// deadband around the target the HVAC switches fully on (max flow, coil at
// its limit); once the temperature crosses the target on the way back the
// system switches off (minimum ventilation only). This produces the large
// temperature oscillation and power peaks of paper Fig. 5.
#pragma once

#include "control/controller.hpp"
#include "hvac/hvac_params.hpp"

namespace evc::ctl {

class OnOffController : public ClimateController {
 public:
  explicit OnOffController(hvac::HvacParams params);

  std::string name() const override { return "On/Off"; }
  hvac::HvacInputs decide(const ControlContext& context) override;
  void reset() override { mode_ = Mode::kOff; }
  void save_state(BinaryWriter& writer) const override;
  void load_state(BinaryReader& reader) override;

 private:
  enum class Mode { kOff, kCooling, kHeating };

  hvac::HvacParams params_;
  Mode mode_ = Mode::kOff;
};

}  // namespace evc::ctl
