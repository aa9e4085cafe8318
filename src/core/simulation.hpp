// Driving-time closed-loop co-simulation (paper Algorithm 1).
//
// Runs a climate controller against the EV plant over a drive profile:
//   line 2–5   motor power pre-computed from the profile,
//   line 13–22 per-step loop: forecast window → controller → HVAC plant →
//              BMS SoC update,
//   line 23    ΔSoH of the completed discharge cycle.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "core/ev_model.hpp"
#include "core/metrics.hpp"
#include "drivecycle/drive_profile.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fault_injection.hpp"
#include "sim/recorder.hpp"

namespace evc::core {

struct SimulationOptions {
  double initial_soc_percent = 90.0;
  /// Cabin temperature at departure; defaults to the comfort target (the
  /// paper evaluates regulation, not pull-down — override for pull-down
  /// scenarios).
  std::optional<double> initial_cabin_temp_c;
  /// How much of the drive profile the controller may look ahead (s).
  double forecast_horizon_s = 120.0;
  /// Record full traces (disable for parameter sweeps to save memory).
  bool record_traces = true;
  /// Optional fault injector corrupting the ControlContext the controller
  /// sees each step (the plant stays truthful). Not owned; the caller is
  /// responsible for reset() between runs. nullptr = clean sensors.
  sim::FaultInjector* fault_injector = nullptr;
  /// Bounded ring of per-step flight records (obs::FlightRecorder) kept by
  /// SimulationSession — the black box read after a crash or demotion.
  std::size_t flight_recorder_capacity = 4096;
  /// When non-empty, the flight recorder dumps its JSON here every time the
  /// supervisor demotes (the recorded tier rises) — the post-mortem for
  /// "why did the stack fall back".
  std::string flight_dump_path;
  /// Optional precomputed motor-power trace (from precompute_motor_power,
  /// same params + profile, one entry per sample). Motor power depends only
  /// on vehicle params and the profile — never on per-run state — so
  /// callers constructing many sessions over the same route (the session
  /// service hydrates one per step request) share one trace instead of
  /// re-evaluating the powertrain model per construction. Not owned; must
  /// outlive the session. nullptr = compute in the constructor.
  const std::vector<double>* motor_power_cache = nullptr;
};

struct SimulationResult {
  TripMetrics metrics;
  /// Channels: cabin_temp_c, outside_temp_c, motor_power_w, hvac_power_w,
  /// heater_w, cooler_w, fan_w, soc_percent, speed_mps.
  sim::StateRecorder recorder;
};

/// Algorithm 1 lines 2–5 as a standalone precomputation: the motor-power
/// trace for `profile` under `params` (route knowledge, identical for every
/// run over the same route). Feed the result to
/// SimulationOptions::motor_power_cache.
std::vector<double> precompute_motor_power(const EvParams& params,
                                           const drive::DriveProfile& profile);

class ClimateSimulation {
 public:
  explicit ClimateSimulation(EvParams params);

  const EvParams& params() const { return params_; }

  SimulationResult run(ctl::ClimateController& controller,
                       const drive::DriveProfile& profile,
                       const SimulationOptions& options = {}) const;

 private:
  EvParams params_;
};

/// Incremental form of ClimateSimulation::run() with crash-safe
/// checkpoint/restore.
///
/// A session owns everything Algorithm 1's loop mutates — the EV plant,
/// accumulators, traces, the recorder — and borrows the controller, drive
/// profile, and (optional) fault injector from the caller. Stepping it to
/// completion reproduces run() byte-for-byte; it exists so a run can be
/// *interrupted*:
///
///   checkpoint() serializes the complete mutable state (session, plant,
///   controller — via ClimateController::save_state — and fault-injector
///   RNG streams) into a sim::Checkpoint envelope; restore() loads one into
///   a freshly constructed session. A restored run continues byte-
///   identically: N steps + checkpoint + restore + M steps equals N + M
///   uninterrupted steps, including every trace sample, metric, controller
///   decision, and subsequent fault episode (tested; the chaos-soak bench
///   leans on this through kill-and-resume cycles).
///
/// The caller must reconstruct the same configuration before restore():
/// same profile, options, controller structure, and fault specs. Mismatches
/// the payload can detect (tier counts, spec counts, FDI presence) throw
/// SerializationError; value-level divergence is on the caller, exactly
/// like any process reloading its own state file.
class SimulationSession {
 public:
  /// Resets `controller` and prepares step 0. The referenced controller,
  /// profile, and options.fault_injector must outlive the session.
  SimulationSession(const EvParams& params, ctl::ClimateController& controller,
                    const drive::DriveProfile& profile,
                    const SimulationOptions& options = {});

  std::size_t step_index() const { return step_; }
  bool done() const { return step_ >= n_; }
  double cabin_temp_c() const { return ev_.cabin_temp_c(); }
  double soc_percent() const { return ev_.soc_percent(); }
  /// HVAC power applied on the most recent step (0 before the first).
  double last_hvac_power_w() const { return last_hvac_power_w_; }

  /// Advance one control step (precondition: !done()).
  void advance();
  /// Advance until done.
  void run_to_completion();

  /// Metrics + recorder for the steps taken so far (canonically called at
  /// done(); the recorder is moved out, leaving the session finished).
  SimulationResult finish();

  /// Serialize the complete mutable state into an encoded checkpoint
  /// envelope (see sim::Checkpoint).
  std::string checkpoint() const;
  /// Restore from an encoded envelope produced by checkpoint() under the
  /// same configuration. Throws SerializationError on any mismatch the
  /// payload can detect.
  void restore(const std::string& encoded);
  /// Atomic file convenience wrappers around checkpoint()/restore().
  void checkpoint_to_file(const std::string& path) const;
  void restore_from_file(const std::string& path);

  /// The per-step black box (one FlightRecord per advance(), bounded ring).
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

 private:
  EvParams params_;
  ctl::ClimateController& controller_;
  const drive::DriveProfile& profile_;
  SimulationOptions options_;

  EvModel ev_;
  /// The session's own motor-power trace, computed only when no
  /// SimulationOptions::motor_power_cache is given.
  std::vector<double> own_motor_power_;
  /// The trace every step reads: the caller's cache or own_motor_power_
  /// (a span over a vector's buffer survives moving the session).
  std::span<const double> motor_power_;
  std::size_t forecast_samples_ = 1;
  double dt_ = 1.0;
  std::size_t n_ = 0;
  /// What advance() hands the controller, rewritten every step.
  ctl::ControlContext context_;

  std::size_t step_ = 0;
  double motor_acc_ = 0.0;
  double hvac_acc_ = 0.0;
  double total_acc_ = 0.0;
  std::vector<double> cabin_trace_;
  double last_hvac_power_w_ = 0.0;
  sim::StateRecorder recorder_;
  obs::FlightRecorder flight_;
  /// Highest tier seen so far; a rise triggers the flight_dump_path dump.
  std::uint32_t last_flight_tier_ = 0;
};

}  // namespace evc::core
