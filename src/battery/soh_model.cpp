#include "battery/soh_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/expect.hpp"
#include "util/stats.hpp"

namespace evc::bat {

SohModel::SohModel(BatteryParams params) : params_(params) {
  params_.validate();
}

CycleStress SohModel::stress_of_trace(
    const std::vector<double>& soc_trace) const {
  EVC_EXPECT(soc_trace.size() >= 2, "SoC trace needs at least two samples");
  CycleStress stress;
  stress.soc_average = mean_of(soc_trace);
  stress.soc_deviation = stddev_of(soc_trace);
  return stress;
}

double SohModel::delta_soh(const CycleStress& drive_stress) const {
  EVC_EXPECT(drive_stress.soc_deviation >= 0.0,
             "SoC deviation must be >= 0");
  // Corrupted SoC telemetry can place the cycle stress far outside what a
  // pack can physically exhibit, and e^(α·dev) then overflows to Inf and
  // poisons every downstream lifetime figure. Clamp both stress inputs to
  // the representable [0, 100] band (non-finite collapses to the band edge
  // nearest zero); debug builds assert so genuine model bugs stay loud.
  assert(drive_stress.soc_deviation <= 100.0 &&
         "SoC deviation above the 0-100 band");
  assert(drive_stress.soc_average >= 0.0 &&
         drive_stress.soc_average <= 100.0 &&
         "SoC average outside the 0-100 band");
  const double deviation =
      std::isfinite(drive_stress.soc_deviation)
          ? std::min(drive_stress.soc_deviation, 100.0)
          : 0.0;
  const double average =
      std::isfinite(drive_stress.soc_average)
          ? std::clamp(drive_stress.soc_average, 0.0, 100.0)
          : 0.0;
  const double dev = deviation + params_.charge_phase_dev_percent;
  const double avg = 0.5 * (average + params_.charge_phase_avg_percent);
  return (params_.soh_a1 * std::exp(params_.soh_alpha * dev) +
          params_.soh_a2) *
         (params_.soh_a3 * std::exp(params_.soh_beta * avg));
}

double SohModel::cycles_to_end_of_life(double delta_soh_per_cycle) const {
  EVC_EXPECT(delta_soh_per_cycle > 0.0, "fade per cycle must be positive");
  return params_.end_of_life_fade_percent / delta_soh_per_cycle;
}

double SohModel::calendar_fade(double days,
                               double standing_soc_percent) const {
  EVC_EXPECT(days >= 0.0, "calendar days must be >= 0");
  EVC_EXPECT(standing_soc_percent >= 0.0 && standing_soc_percent <= 100.0,
             "standing SoC outside [0, 100]");
  return params_.calendar_k *
         std::exp(params_.calendar_beta * standing_soc_percent) *
         std::sqrt(days);
}

double SohModel::years_to_end_of_life(double delta_soh_per_cycle,
                                      double cycles_per_day,
                                      double standing_soc_percent) const {
  EVC_EXPECT(delta_soh_per_cycle >= 0.0, "fade per cycle must be >= 0");
  EVC_EXPECT(cycles_per_day >= 0.0, "cycles per day must be >= 0");
  EVC_EXPECT(delta_soh_per_cycle * cycles_per_day > 0.0 ||
                 params_.calendar_k > 0.0,
             "no aging mechanism active — lifetime undefined");
  const auto total_fade = [&](double years) {
    const double days = 365.0 * years;
    return delta_soh_per_cycle * cycles_per_day * days +
           calendar_fade(days, standing_soc_percent);
  };
  double lo = 0.0, hi = 1.0;
  while (total_fade(hi) < params_.end_of_life_fade_percent && hi < 1e4)
    hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (total_fade(mid) < params_.end_of_life_fade_percent)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace evc::bat
