// Shared helpers for the figure/table regeneration harness.
//
// Every paper bench regenerates tables or figures from the paper's
// evaluation (§IV): it runs the same closed-loop co-simulation the paper
// ran (On/Off [8,9] vs fuzzy [10] vs our battery lifetime-aware MPC on
// standard driving cycles) and prints the rows/series of each exhibit.
// Absolute numbers come from our simulator rather than the authors'
// MATLAB/AMESim testbed; the reproduction target is the *shape* (ordering,
// rough factors, crossovers). EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "runtime/thread_pool.hpp"
#include "util/table.hpp"

namespace evc::bench {

/// Ambient temperature used for the cross-cycle comparisons (Fig. 5–8).
/// The paper fixes "the same ambient temperature, comfort zone, and target
/// temperature for all methodologies"; we use a hot summer day.
inline constexpr double kDefaultAmbientC = 35.0;

/// Controller-name constants in the paper's column order.
inline const char* kOnOff = "On/Off [8,9]";
inline const char* kFuzzy = "Fuzzy-based [10]";
inline const char* kOurs = "Our Battery Lifetime-aware";

}  // namespace evc::bench
