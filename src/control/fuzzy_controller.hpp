// Fuzzy-based climate control — the second state-of-the-art baseline
// (paper ref [10]: Ibrahim et al., Procedia Engineering 2012).
//
// A Mamdani PD-style fuzzy regulator on (temperature error, error rate)
// produces a normalized thermal command u ∈ [−1, 1] (negative = cool,
// positive = heat), mapped onto the VAV actuators: coil/supply temperature
// proportional to |u| and air flow scheduled with demand. This stabilizes
// the cabin temperature tightly (paper Fig. 5) but is oblivious to the
// motor load and battery state.
#pragma once

#include <memory>

#include "control/controller.hpp"
#include "control/fuzzy_engine.hpp"
#include "hvac/hvac_params.hpp"

namespace evc::ctl {

class FuzzyController : public ClimateController {
 public:
  explicit FuzzyController(hvac::HvacParams params);

  std::string name() const override { return "Fuzzy"; }
  hvac::HvacInputs decide(const ControlContext& context) override;
  void reset() override;
  void save_state(BinaryWriter& writer) const override;
  void load_state(BinaryReader& reader) override;

  /// Normalized thermal command for given crisp error/rate — exposed for
  /// unit-testing the rule base.
  double command(double error_c, double error_rate_c_s) const;

 private:
  hvac::HvacParams params_;
  std::unique_ptr<FuzzyInference> inference_;
  double prev_error_ = 0.0;
  bool has_prev_ = false;
  double integral_trim_ = 0.0;
};

}  // namespace evc::ctl
