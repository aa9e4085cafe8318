#include "hvac/comfort.hpp"

#include <algorithm>
#include <cmath>

#include "hvac/humidity.hpp"
#include "util/expect.hpp"

namespace evc::hvac {

namespace {

/// Clothing surface temperature by damped fixed-point iteration (ISO 7730).
double clothing_surface_temp(double m_w, double icl, double fcl, double ta,
                             double tr, double var) {
  double tcl = ta + 0.5 * (35.7 - 0.028 * m_w - ta);  // warm start
  const double hc_forced = 12.1 * std::sqrt(var);
  const double tr4 = std::pow(tr + 273.0, 4);
  for (int iter = 0; iter < 150; ++iter) {
    const double hc_nat = 2.38 * std::pow(std::abs(tcl - ta), 0.25);
    const double hc = std::max(hc_nat, hc_forced);
    const double radiant = 3.96e-8 * fcl * (std::pow(tcl + 273.0, 4) - tr4);
    const double next =
        35.7 - 0.028 * m_w - icl * (radiant + fcl * hc * (tcl - ta));
    const double damped = 0.5 * (tcl + next);
    if (std::abs(damped - tcl) < 1e-7) return damped;
    tcl = damped;
  }
  return tcl;
}

}  // namespace

double predicted_mean_vote(const ComfortConditions& c) {
  EVC_EXPECT(c.metabolic_rate_met > 0.0, "metabolic rate must be positive");
  EVC_EXPECT(c.clothing_clo >= 0.0, "clothing insulation must be >= 0");
  EVC_EXPECT(c.air_velocity_m_s >= 0.0, "air velocity must be >= 0");
  EVC_EXPECT(c.relative_humidity >= 0.0 && c.relative_humidity <= 1.0,
             "relative humidity outside [0, 1]");

  const double m = c.metabolic_rate_met * 58.15;  // W/m²
  const double w = 0.0;                           // no external work
  const double m_w = m - w;
  const double icl = 0.155 * c.clothing_clo;  // m²K/W
  const double fcl =
      icl <= 0.078 ? 1.0 + 1.29 * icl : 1.05 + 0.645 * icl;
  const double pa =
      c.relative_humidity * saturation_pressure_pa(c.air_temp_c);
  const double var = std::max(c.air_velocity_m_s, 0.05);

  const double tcl = clothing_surface_temp(m_w, icl, fcl, c.air_temp_c,
                                           c.radiant_temp_c, var);
  const double hc = std::max(2.38 * std::pow(std::abs(tcl - c.air_temp_c),
                                             0.25),
                             12.1 * std::sqrt(var));

  // Heat-balance terms (ISO 7730 Eq. 1).
  const double skin_diffusion = 3.05e-3 * (5733.0 - 6.99 * m_w - pa);
  const double sweating = std::max(0.42 * (m_w - 58.15), 0.0);
  const double latent_resp = 1.7e-5 * m * (5867.0 - pa);
  const double dry_resp = 0.0014 * m * (34.0 - c.air_temp_c);
  const double radiant =
      3.96e-8 * fcl *
      (std::pow(tcl + 273.0, 4) - std::pow(c.radiant_temp_c + 273.0, 4));
  const double convective = fcl * hc * (tcl - c.air_temp_c);

  const double load = m_w - skin_diffusion - sweating - latent_resp -
                      dry_resp - radiant - convective;
  return (0.303 * std::exp(-0.036 * m) + 0.028) * load;
}

double predicted_percentage_dissatisfied(double pmv) {
  return 100.0 -
         95.0 * std::exp(-0.03353 * std::pow(pmv, 4) -
                         0.2179 * pmv * pmv);
}

ComfortBand comfort_band(ComfortConditions conditions, double pmv_limit) {
  EVC_EXPECT(pmv_limit > 0.0, "PMV limit must be positive");
  const double radiant_offset =
      conditions.radiant_temp_c - conditions.air_temp_c;
  const auto pmv_at = [&](double air_temp) {
    ComfortConditions c = conditions;
    c.air_temp_c = air_temp;
    c.radiant_temp_c = air_temp + radiant_offset;
    return predicted_mean_vote(c);
  };
  // PMV is monotone increasing in temperature: bisect each band edge.
  const auto solve = [&](double target) {
    double lo = 0.0, hi = 50.0;
    EVC_EXPECT(pmv_at(lo) < target && pmv_at(hi) > target,
               "comfort band outside the 0–50 °C search window");
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (pmv_at(mid) < target)
        lo = mid;
      else
        hi = mid;
    }
    return 0.5 * (lo + hi);
  };
  ComfortBand band;
  band.low_c = solve(-pmv_limit);
  band.high_c = solve(pmv_limit);
  return band;
}

}  // namespace evc::hvac
