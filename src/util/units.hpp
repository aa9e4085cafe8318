// Unit conversions and physical constants used across the EV models.
//
// Internally the library works in SI units: m, s, kg, W, J, K. Temperatures
// are stored in degrees Celsius: the cabin/HVAC equations only ever use
// temperature *differences*, so Celsius is safe there and matches the
// paper's tables.
#pragma once

#include <cmath>

namespace evc::units {

inline constexpr double kmh_to_mps(double kmh) { return kmh / 3.6; }
inline constexpr double mps_to_kmh(double mps) { return mps * 3.6; }
inline constexpr double kwh_to_j(double kwh) { return kwh * 3.6e6; }
inline constexpr double celsius_to_kelvin(double c) { return c + 273.15; }
inline constexpr double ah_to_coulomb(double ah) { return ah * 3600.0; }

/// Percent grade (paper's α, 100 % == 45°) to road angle in radians.
inline double grade_percent_to_angle(double grade_percent) {
  return std::atan(grade_percent / 100.0);
}

}  // namespace evc::units

namespace evc::consts {

inline constexpr double kGravity = 9.81;          // m/s^2
inline constexpr double kAirDensity = 1.2;        // kg/m^3 at ~20 °C
inline constexpr double kAirHeatCapacity = 1005;  // J/(kg K), dry air cp

}  // namespace evc::consts
