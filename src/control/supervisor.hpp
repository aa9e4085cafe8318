// Fault-tolerant control supervisor: input sanitation, per-step deadline
// watchdog, and a graceful-degradation fallback chain.
//
// A real vehicle ECU cannot forward a NaN from a glitched sensor into an
// optimizer, nor hold the cabin hostage to a solver that missed its
// deadline. The SupervisedController wraps an ordered list of tiers —
// canonically full MPC → relaxed MPC → PID → On/Off — behind one
// ClimateController facade and guarantees, for every step:
//   * the wrapped controllers only ever see sanitized inputs (NaN/Inf and
//     out-of-range values replaced by last-good-value hold + clamp),
//   * the emitted actuation is finite and inside the actuator box,
//   * a tier that reports degraded health (DecisionHealth), emits bad
//     actuation, or blows the step deadline is demoted away from
//     immediately — the next tier decides in the same step,
//   * recovery is hysteretic: a degraded tier must look healthy for
//     `promote_after` consecutive steps before the tier above is probed
//     again, so the chain cannot flap at the fault rate.
// A terminal safe-hold tier (hold last healthy actuation, else minimum
// ventilation pass-through) is built in and cannot fail.
//
// When every input is clean and the preferred tier healthy, the supervisor
// is a bit-exact pass-through: sanitation only rewrites values that are
// actually bad, so supervised and unsupervised runs produce byte-identical
// traces on fault-free scenarios (tested).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/pid.hpp"
#include "hvac/hvac_params.hpp"
#include "sim/fdi/fdi.hpp"

namespace evc::ctl {

struct SupervisorOptions {
  /// Per-step wall-clock deadline for one tier's decide() (s); a miss marks
  /// the tier unhealthy for this step. 0 disables the watchdog.
  double step_deadline_s = 0.0;
  /// Consecutive healthy steps at a degraded tier before the tier above is
  /// probed again (recovery hysteresis; ≥ 1).
  std::size_t promote_after = 8;
  /// Consecutive steps a sensor may ride the last-good-value hold before
  /// the supervisor escalates to the safe-hold tier: a hold that old tracks
  /// nothing, so acting on it through any controller is guesswork. 0
  /// disables the escalation (holds age silently, matching the pre-FDIR
  /// behaviour). Irrelevant while the FDIR layer substitutes live virtual
  /// estimates — those are finite, so the hold never ages.
  std::size_t max_hold_steps = 0;
  /// Sensor FDIR layer (detection/isolation/recovery + virtual-sensor
  /// substitution); constructed only when fdi.enabled.
  fdi::FdiOptions fdi;
};

/// Counters for every intervention the supervisor makes. `tier_steps[i]` is
/// the number of steps actuated by tier i (the safe-hold tier is the last
/// entry) — the "fallback occupancy" reported by the robustness bench.
struct SupervisorStats {
  std::size_t steps = 0;
  std::size_t sanitized_steps = 0;   ///< steps with ≥ 1 repaired input
  std::size_t sanitized_values = 0;  ///< individual repaired input values
  std::size_t deadline_misses = 0;
  std::size_t health_degradations = 0;  ///< tier self-reported degraded
  std::size_t invalid_outputs = 0;  ///< non-finite / out-of-box actuation
  std::size_t output_clamps = 0;    ///< emitted actuation pulled into box
  std::size_t demotions = 0;
  std::size_t promotions = 0;
  /// Steps forced to the safe-hold tier because a sensor hold outlived
  /// max_hold_steps (permanent-dropout escalation).
  std::size_t hold_expirations = 0;
  /// Steps where the FDIR layer substituted ≥ 1 virtual-sensor estimate.
  std::size_t fdi_substituted_steps = 0;
  /// Demotions imposed from outside via set_tier_floor() (load shedding),
  /// as opposed to `demotions`, which counts fault-driven ones.
  std::size_t forced_demotions = 0;
  std::vector<std::size_t> tier_steps;
};

class SupervisedController : public ClimateController {
 public:
  /// `tiers` in degradation order, tiers[0] = preferred. At least one. The
  /// terminal safe-hold tier is internal — do not include it.
  SupervisedController(std::vector<std::unique_ptr<ClimateController>> tiers,
                       hvac::HvacParams params,
                       SupervisorOptions options = {});

  std::string name() const override;
  hvac::HvacInputs decide(const ControlContext& context) override;
  void reset() override;

  const SupervisorStats& stats() const { return stats_; }
  const SupervisorOptions& options() const { return options_; }
  /// Index of the tier currently trusted (0 = preferred; num_tiers() − 1 =
  /// safe-hold).
  std::size_t current_tier() const { return current_tier_; }
  /// Wrapped tiers + 1 for the internal safe-hold.
  std::size_t num_tiers() const { return tiers_.size() + 1; }
  /// Display name of tier `i` ("safe-hold" for the terminal tier).
  std::string tier_name(std::size_t i) const;
  /// Borrow wrapped tier `i` (i < num_tiers() − 1; the internal safe-hold
  /// has no controller object) — e.g. to read tier-specific telemetry.
  const ClimateController& tier(std::size_t i) const { return *tiers_.at(i); }
  /// Tier that actuated the most recent step.
  std::size_t last_applied_tier() const { return last_applied_tier_; }
  /// Externally imposed degradation floor (load shedding): the supervisor
  /// never runs a tier cheaper-indexed than the floor. Raising the floor
  /// above the current tier demotes immediately (counted in
  /// stats().forced_demotions); lowering it lets the normal hysteretic
  /// promotion walk back up. Clamped to the safe-hold tier. The floor is
  /// part of checkpointed state and cleared by reset().
  void set_tier_floor(std::size_t floor);
  std::size_t tier_floor() const { return tier_floor_; }
  /// The FDIR subsystem, or nullptr when options.fdi.enabled is false.
  const fdi::SensorFdi* fdi() const { return fdi_.get(); }

  /// Checkpoint hooks: supervisor bookkeeping, sanitizer hold state, FDIR
  /// subsystem, and every wrapped tier (recursive).
  void save_state(BinaryWriter& writer) const override;
  void load_state(BinaryReader& reader) override;

  /// Flight-recorder hook: applied tier + FDIR health triple, then delegate
  /// to the tier that actually actuated (for its solver effort fields).
  void fill_flight_record(obs::FlightRecord& record) const override;

 private:
  ControlContext sanitize(const ControlContext& context);
  hvac::HvacInputs safe_hold(const ControlContext& context) const;
  bool output_ok(const hvac::HvacInputs& inputs) const;

  std::vector<std::unique_ptr<ClimateController>> tiers_;
  hvac::HvacParams params_;
  SupervisorOptions options_;
  SupervisorStats stats_;

  std::size_t current_tier_ = 0;
  std::size_t last_applied_tier_ = 0;
  std::size_t healthy_streak_ = 0;
  std::size_t tier_floor_ = 0;

  // Last-good-value hold for the sanitizer.
  bool have_last_good_ = false;
  double last_good_cabin_c_ = 0.0;
  double last_good_outside_c_ = 0.0;
  double last_good_soc_ = 0.0;

  // Safe-hold state: last actuation that passed the output checks.
  bool have_safe_output_ = false;
  hvac::HvacInputs last_safe_output_;

  // Consecutive steps each scalar was repaired by the last-good hold
  // (non-finite raw reading); resets on any finite reading.
  std::size_t cabin_hold_age_ = 0;
  std::size_t outside_hold_age_ = 0;
  std::size_t soc_hold_age_ = 0;

  std::unique_ptr<fdi::SensorFdi> fdi_;
};

/// PID fallback tier: a single PID on the cabin-temperature error commands
/// one heat/cool effort u ∈ [−1, 1], mapped onto the actuator box with the
/// same demand-scheduled actuation the fuzzy baseline uses. Deterministic,
/// allocation-free, microseconds per step — the workhorse degraded mode
/// when the optimizer is distrusted.
class PidClimateController : public ClimateController {
 public:
  explicit PidClimateController(hvac::HvacParams params);

  std::string name() const override { return "PID fallback"; }
  hvac::HvacInputs decide(const ControlContext& context) override;
  void reset() override { pid_.reset(); }
  void save_state(BinaryWriter& writer) const override {
    pid_.save_state(writer);
  }
  void load_state(BinaryReader& reader) override { pid_.load_state(reader); }

 private:
  hvac::HvacParams params_;
  Pid pid_;
};

}  // namespace evc::ctl
