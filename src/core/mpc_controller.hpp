// Battery lifetime-aware MPC climate controller (paper §III, Algorithm 1).
//
// Each planning instant the controller:
//   1. bins the motor-power/ambient forecast from the drive profile into
//      the MPC's coarser step (Algorithm 1 lines 14–15),
//   2. assembles the bilinear optimal-control problem (MpcFormulation),
//   3. solves it with SQP, warm-started from the previous plan shifted by
//      one step (line 16) and from the previous plan's final QP working
//      set, shifted by the same stage (the constraint structure is
//      identical across receding-horizon steps, so each stage's inequality
//      rows inherit the next stage's working-set membership; the last
//      stage repeats its own),
//   4. applies the first input of the optimal plan (line 18).
// Between planning instants the last applied input is held (zero-order
// hold), which is what makes the controller real-time viable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "battery/battery_params.hpp"
#include "control/controller.hpp"
#include "core/mpc_formulation.hpp"
#include "optim/sqp.hpp"

namespace evc::core {

struct MpcOptions {
  std::size_t horizon = 12;  ///< N, steps in the control window
  double step_s = 5.0;       ///< MPC discretization = replanning period
  MpcWeights weights;
  opt::SqpOptions sqp;
  /// Accessory draw added to the motor forecast (W).
  double accessory_power_w = 250.0;
  /// When set, use the paper's literal (SoC − SoCavg)² cost with this
  /// cycle-average reference (percent, e.g. from TripPlanner); otherwise
  /// the window-variance form is used.
  std::optional<double> soc_reference;
  /// Model the Peukert rate-capacity effect inside the control window
  /// (see MpcWindowData::nonlinear_battery).
  bool nonlinear_battery = false;
  /// Display name; lets variants (e.g. the supervisor's relaxed fallback
  /// tier) stay distinguishable in comparisons and fallback-occupancy rows.
  std::string name = "Battery Lifetime-aware MPC";

  MpcOptions() {
    // The receding horizon forgives small suboptimality; favour speed.
    // Temperatures to 1 mK and constraint residuals to 0.1 mK are far
    // below actuator resolution.
    sqp.max_iterations = 8;
    sqp.step_tolerance = 1e-3;
    sqp.constraint_tolerance = 1e-4;
    sqp.hessian_regularization = 1e-6;
  }
};

/// Where a plan's SQP starts: the primal iterate and, when the iterate comes
/// from a previous plan, that plan's final QP working set aligned to the
/// same window — the seed of the first QP subproblem. A cold start has no
/// working set.
struct MpcWarmStart {
  num::Vector x;
  std::optional<std::vector<std::size_t>> active_ineq;
};

/// Planning telemetry for tests/benches. `solver` aggregates the QP
/// solver's perf counters (solves, factorizations, warm starts, working-set
/// changes, peak bytes) over every plan since reset.
/// The per-status counters partition `plans`: every solve lands in exactly
/// one of converged / max_iteration_exits / timeouts / numerical_failures,
/// and `rejected_plans` counts usable solves whose constraint violation was
/// too large to apply (those also count toward `failures`).
struct MpcPlanStats {
  std::size_t plans = 0;
  std::size_t failures = 0;  ///< plans that fell back (unusable or rejected)
  std::size_t sqp_iterations = 0;
  std::size_t qp_iterations = 0;
  std::uint64_t solve_time_ns = 0;  ///< wall time spent inside SQP solves
  std::size_t dual_warm_starts = 0; ///< plans seeded with a working set
  std::size_t converged = 0;            ///< SolveStatus::kConverged solves
  std::size_t max_iteration_exits = 0;  ///< SolveStatus::kMaxIterations
  std::size_t timeouts = 0;             ///< SolveStatus::kTimeout
  std::size_t numerical_failures = 0;   ///< SolveStatus::kNumericalFailure
  std::size_t rejected_plans = 0;  ///< usable but violation too large
  opt::QpPerfCounters solver;
  std::size_t solver_workspace_bytes = 0;
};

class MpcClimateController : public ctl::ClimateController {
 public:
  MpcClimateController(hvac::HvacParams hvac_params,
                       bat::BatteryParams battery_params,
                       MpcOptions options = {});

  std::string name() const override { return options_.name; }
  hvac::HvacInputs decide(const ctl::ControlContext& context) override;
  void reset() override;
  /// Degraded while the most recent plan was not applied (solver timeout /
  /// numerical failure / rejected iterate) — the supervisor's demotion
  /// signal. Healthy between planning instants if the held plan was good.
  ctl::DecisionHealth last_health() const override;

  const MpcPlanStats& stats() const { return stats_; }
  const MpcOptions& options() const { return options_; }
  /// Planned SoC trajectory of the last solve (empty before first plan).
  const std::vector<double>& planned_soc() const { return planned_soc_; }
  /// The last applied plan and its final QP working set — what the next
  /// plan is seeded from (empty after a failed plan).
  const std::optional<num::Vector>& last_solution() const {
    return last_solution_;
  }
  const std::vector<std::size_t>& last_working_set() const {
    return last_working_set_;
  }

  /// The seed for planning `formulation`'s window: the previous plan either
  /// held as-is or shifted one stage forward, whichever matches the
  /// measured initial state, with its working set held or shifted alongside
  /// (see the file comment, step 3); the cold start when there is no plan.
  MpcWarmStart warm_start(const MpcFormulation& formulation) const;

  /// Checkpoint hooks: round-trip everything that influences future plans —
  /// warm-start state (plan and QP working set), zero-order-hold input,
  /// plan schedule, and the aggregate telemetry (including the QP solver
  /// counters, which are pushed back into the solver on load).
  void save_state(BinaryWriter& writer) const override;
  void load_state(BinaryReader& reader) override;

  /// Per-step solver effort for the flight recorder: the QP iterations and
  /// wall time of the plan computed *this* step (zero on zero-order-hold
  /// steps, which run no solver).
  void fill_flight_record(obs::FlightRecord& record) const override;

 private:
  MpcWindowData make_window(const ctl::ControlContext& context) const;
  hvac::HvacInputs fallback_inputs(const ctl::ControlContext& context) const;

  hvac::HvacParams hvac_;
  bat::BatteryParams battery_;
  MpcOptions options_;
  opt::SqpSolver solver_;

  std::optional<num::Vector> last_solution_;
  std::vector<std::size_t> last_working_set_;
  std::optional<hvac::HvacInputs> held_input_;
  double next_plan_time_s_ = 0.0;
  std::vector<double> planned_soc_;
  MpcPlanStats stats_;
  opt::SolveStatus last_plan_status_ = opt::SolveStatus::kConverged;
  bool last_plan_applied_ = true;
  std::uint64_t last_step_qp_iterations_ = 0;
  std::uint64_t last_step_solve_ns_ = 0;
};

}  // namespace evc::core
