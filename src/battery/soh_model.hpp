// SoH degradation model (paper Eq. 15–17).
//
// The stress of one discharging/charging cycle is summarized by the SoC
// deviation (population stddev of the SoC trace) and the SoC average; the
// per-cycle capacity fade is
//   ΔSoH = (a1·e^(α·SoCdev) + a2) · (a3·e^(β·SoCavg)).
// All SoC quantities are in percent; ΔSoH is in percentage points of
// capacity fade per cycle.
#pragma once

#include <vector>

#include "battery/battery_params.hpp"

namespace evc::bat {

/// Cycle stress summary (Eq. 16–17).
struct CycleStress {
  double soc_deviation = 0.0;  ///< SoCdev, percent
  double soc_average = 0.0;    ///< SoCavg, percent
};

class SohModel {
 public:
  explicit SohModel(BatteryParams params);

  const BatteryParams& params() const { return params_; }

  /// Stress of the *driving* (discharge) part of a cycle from a sampled SoC
  /// trace (percent).
  CycleStress stress_of_trace(const std::vector<double>& soc_trace) const;

  /// Per-cycle fade (percentage points) from a cycle's stress. The fixed
  /// charging phase (paper §II-D) is folded in as constants: its deviation
  /// adds to the drive deviation, and the cycle average blends the drive
  /// average with the charging-phase average.
  double delta_soh(const CycleStress& drive_stress) const;

  /// Number of identical cycles until end of life (80 % capacity),
  /// cycle aging only (the paper's lifetime measure).
  double cycles_to_end_of_life(double delta_soh_per_cycle) const;

  /// Calendar fade (percentage points) after `days` at a standing SoC —
  /// √t law, an extension beyond the paper's cycle-only model.
  double calendar_fade(double days, double standing_soc_percent) const;

  /// Years until end of life combining cycle aging (`cycles_per_day`
  /// cycles of `delta_soh_per_cycle` each) with calendar aging at the
  /// standing SoC. Solved by bisection.
  double years_to_end_of_life(double delta_soh_per_cycle,
                              double cycles_per_day,
                              double standing_soc_percent) const;

 private:
  BatteryParams params_;
};

}  // namespace evc::bat
