#include "core/mpc_controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/serialize.hpp"

namespace evc::core {

MpcClimateController::MpcClimateController(hvac::HvacParams hvac_params,
                                           bat::BatteryParams battery_params,
                                           MpcOptions options)
    : hvac_(hvac_params), battery_(battery_params), options_(options),
      solver_(options.sqp) {
  hvac_.validate();
  battery_.validate();
  EVC_EXPECT(options_.horizon >= 2, "MPC horizon must be at least 2 steps");
  EVC_EXPECT(options_.step_s > 0.0, "MPC step must be positive");
}

void MpcClimateController::reset() {
  last_solution_.reset();
  last_working_set_.clear();
  held_input_.reset();
  next_plan_time_s_ = 0.0;
  planned_soc_.clear();
  stats_ = MpcPlanStats{};
  last_plan_status_ = opt::SolveStatus::kConverged;
  last_plan_applied_ = true;
  last_step_qp_iterations_ = 0;
  last_step_solve_ns_ = 0;
  solver_.reset_qp_counters();
}

ctl::DecisionHealth MpcClimateController::last_health() const {
  if (last_plan_applied_) {
    // A timed-out plan may still be applied (finite, near-feasible
    // best-effort iterate — often just the warm-started shift of the
    // previous plan), but it earned no trust: report degraded so a
    // supervisor can hand the step to a tier with an adequate budget.
    if (last_plan_status_ == opt::SolveStatus::kTimeout)
      return {true, "mpc solver timeout (best-effort plan applied)"};
    return {};
  }
  switch (last_plan_status_) {
    case opt::SolveStatus::kTimeout:
      return {true, "mpc solver timeout"};
    case opt::SolveStatus::kNumericalFailure:
      return {true, "mpc solver numerical failure"};
    case opt::SolveStatus::kMaxIterations:
      return {true, "mpc plan rejected at iteration cap"};
    case opt::SolveStatus::kConverged:
      return {true, "mpc plan rejected"};
  }
  return {true, "mpc plan rejected"};
}

MpcWindowData MpcClimateController::make_window(
    const ctl::ControlContext& context) const {
  MpcWindowData window;
  window.dt_s = options_.step_s;
  window.initial_cabin_temp_c = context.cabin_temp_c;
  window.initial_soc_percent = context.soc_percent;
  window.soc_reference = options_.soc_reference;
  window.nonlinear_battery = options_.nonlinear_battery;
  window.fixed_power_kw.resize(options_.horizon);
  window.outside_temp_c.resize(options_.horizon);

  // Bin the per-sample forecast into MPC steps, padding past its end with
  // the last known value (near the trip's end the horizon outlives the
  // profile — Algorithm 1 clamps there too).
  const auto& power = context.motor_power_forecast_w;
  const auto& temp = context.outside_temp_forecast_c;
  const double sample_dt = context.dt_s;
  const std::size_t per_bin = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(options_.step_s / sample_dt)));

  for (std::size_t k = 0; k < options_.horizon; ++k) {
    double power_acc = 0.0;
    for (std::size_t j = 0; j < per_bin; ++j) {
      const std::size_t i = k * per_bin + j;
      const double p =
          power.empty()
              ? 0.0
              : power[std::min(i, power.size() - 1)];
      power_acc += p;
    }
    window.fixed_power_kw[k] =
        (power_acc / static_cast<double>(per_bin) +
         options_.accessory_power_w) /
        1000.0;
    const std::size_t i0 = k * per_bin;
    window.outside_temp_c[k] =
        temp.empty() ? context.outside_temp_c
                     : temp[std::min(i0, temp.size() - 1)];
  }
  return window;
}

namespace {

// The working set moved one stage forward with the primal: each stage's
// inequality rows take the next stage's membership, the first stage's drop
// out, and the last stage keeps its own.
std::vector<std::size_t> shift_working_set(
    const std::vector<std::size_t>& prev, const MpcIndex& idx) {
  const std::size_t rows = idx.num_ineq();
  const std::size_t per_stage = rows / idx.horizon();
  const std::size_t last_stage = rows - per_stage;
  std::vector<std::size_t> out;
  // Ascending in, ascending out: the shifted rows all lie below
  // last_stage, the repeated ones at or above it.
  for (const std::size_t i : prev)
    if (i >= per_stage && i < rows) out.push_back(i - per_stage);
  for (const std::size_t i : prev)
    if (i >= last_stage && i < rows) out.push_back(i);
  return out;
}

}  // namespace

MpcWarmStart MpcClimateController::warm_start(
    const MpcFormulation& formulation) const {
  const num::Vector cold = formulation.cold_start();
  if (!last_solution_ || last_solution_->size() != cold.size())
    return {cold, std::nullopt};

  const MpcIndex& idx = formulation.index();
  const std::size_t n = idx.horizon();
  const num::Vector& prev = *last_solution_;

  // Two candidate seeds: the previous plan shifted one step forward (right
  // when the plant followed the plan and the window really advanced), or the
  // previous plan held as-is (right when we are re-planning an effectively
  // unchanged problem — the plant did not move to the predicted state, or an
  // ensemble/test caller re-solves the same window). Pick by which one's
  // initial state matches the measurement: starting the SQP from an iterate
  // whose pinned states agree with the initial-state equalities is what lets
  // a steady-state plan confirm in one iteration instead of re-contracting
  // from a self-inflicted infeasibility.
  const MpcWindowData& window = formulation.window();
  const double temp_scale = 1.0, soc_scale = 1.0;
  const double err_shift =
      std::abs(window.initial_cabin_temp_c - prev[idx.x(1)]) / temp_scale +
      std::abs(window.initial_soc_percent - prev[idx.soc(1)]) / soc_scale;
  const double err_hold =
      std::abs(window.initial_cabin_temp_c - prev[idx.x(0)]) / temp_scale +
      std::abs(window.initial_soc_percent - prev[idx.soc(0)]) / soc_scale;
  if (err_hold < err_shift) return {prev, last_working_set_};

  // Shift the previous plan one step forward; duplicate the tail.
  num::Vector z = prev;
  for (std::size_t k = 0; k < n; ++k) {
    z[idx.x(k)] = prev[idx.x(std::min(k + 1, n))];
    z[idx.soc(k)] = prev[idx.soc(std::min(k + 1, n))];
    const std::size_t src = std::min(k + 1, n - 1);
    z[idx.ts(k)] = prev[idx.ts(src)];
    z[idx.tc(k)] = prev[idx.tc(src)];
    z[idx.dr(k)] = prev[idx.dr(src)];
    z[idx.mz(k)] = prev[idx.mz(src)];
    z[idx.tm(k)] = prev[idx.tm(src)];
    z[idx.ph(k)] = prev[idx.ph(src)];
    z[idx.pc(k)] = prev[idx.pc(src)];
    z[idx.pf(k)] = prev[idx.pf(src)];
    z[idx.slack(k)] = prev[idx.slack(src)];
  }
  z[idx.x(n)] = prev[idx.x(n)];
  z[idx.soc(n)] = prev[idx.soc(n)];
  return {z, shift_working_set(last_working_set_, idx)};
}

hvac::HvacInputs MpcClimateController::fallback_inputs(
    const ctl::ControlContext& context) const {
  if (held_input_) return *held_input_;
  // Safe idle: minimum ventilation, coils pass-through.
  hvac::HvacInputs in;
  in.recirculation = 0.5;
  const double tm = (1.0 - in.recirculation) * context.outside_temp_c +
                    in.recirculation * context.cabin_temp_c;
  in.air_flow_kg_s = hvac_.min_air_flow_kg_s;
  in.coil_temp_c = tm;
  in.supply_temp_c = tm;
  return in;
}

hvac::HvacInputs MpcClimateController::decide(
    const ctl::ControlContext& context) {
  // Zero-order hold between planning instants.
  if (held_input_ && context.time_s + 1e-9 < next_plan_time_s_) {
    last_step_qp_iterations_ = 0;
    last_step_solve_ns_ = 0;
    return *held_input_;
  }

  EVC_TRACE_SPAN_VAR(plan_span, "mpc.plan");
  // Registered once; the ids are plain indices afterwards (see
  // obs::MetricsRegistry), so the per-plan cost is a few relaxed atomics.
  static const struct {
    obs::MetricsRegistry::Id plans;
    obs::MetricsRegistry::Id failures;
    obs::MetricsRegistry::Id timeouts;
    obs::MetricsRegistry::Id solve_ns;
    obs::MetricsRegistry::Id qp_solves;
    obs::MetricsRegistry::Id qp_factorizations;
    obs::MetricsRegistry::Id active_set_changes;
  } metric_ids{
      obs::MetricsRegistry::global().counter("mpc.plans"),
      obs::MetricsRegistry::global().counter("mpc.failures"),
      obs::MetricsRegistry::global().counter("mpc.timeouts"),
      obs::MetricsRegistry::global().histogram("mpc.plan.solve_ns"),
      obs::MetricsRegistry::global().counter("mpc.condensed.solves"),
      obs::MetricsRegistry::global().counter("mpc.condensed.rebuilds"),
      obs::MetricsRegistry::global().counter("mpc.condensed.active_set_changes")};

  const MpcWindowData window = make_window(context);
  MpcFormulation formulation(hvac_, battery_, options_.weights, window);
  const MpcWarmStart seed = warm_start(formulation);

  ++stats_.plans;
  // The previous plan's working set, aligned with the primal seed, seeds the
  // first subproblem. A cold start (no plan yet, or after a failed one) has
  // none.
  const std::vector<std::size_t>* warm_active =
      seed.active_ineq ? &*seed.active_ineq : nullptr;
  if (warm_active != nullptr) ++stats_.dual_warm_starts;
  const auto t0 = std::chrono::steady_clock::now();
  const opt::SqpResult result = solver_.solve(formulation, seed.x, warm_active);
  const auto t1 = std::chrono::steady_clock::now();
  last_step_solve_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  last_step_qp_iterations_ = result.qp_iterations_total;
  stats_.solve_time_ns += last_step_solve_ns_;
  stats_.sqp_iterations += result.iterations;
  stats_.qp_iterations += result.qp_iterations_total;
  // The solver counters are cumulative; diff against the previous
  // snapshot so the mpc.condensed.* metrics see only this plan's work.
  const opt::QpPerfCounters prev_counters = stats_.solver;
  stats_.solver = solver_.qp_counters();
  stats_.solver_workspace_bytes = solver_.workspace_bytes();
  plan_span.arg("sqp_iterations", static_cast<double>(result.iterations));
  plan_span.arg("qp_iterations",
                static_cast<double>(result.qp_iterations_total));
  obs::MetricsRegistry::global().add(metric_ids.plans);
  obs::MetricsRegistry::global().observe(metric_ids.solve_ns,
                                         last_step_solve_ns_);
  if (stats_.solver.solves > prev_counters.solves)
    obs::MetricsRegistry::global().add(
        metric_ids.qp_solves, stats_.solver.solves - prev_counters.solves);
  if (stats_.solver.factorizations > prev_counters.factorizations)
    obs::MetricsRegistry::global().add(
        metric_ids.qp_factorizations,
        stats_.solver.factorizations - prev_counters.factorizations);
  if (stats_.solver.active_set_changes > prev_counters.active_set_changes)
    obs::MetricsRegistry::global().add(
        metric_ids.active_set_changes,
        stats_.solver.active_set_changes - prev_counters.active_set_changes);

  // Branch on the structured solver outcome — a numerical failure is never
  // applied, and a timeout / iteration-capped iterate is applied only if it
  // is finite and near-feasible.
  const opt::SolveStatus status = opt::solve_status(result.status);
  last_plan_status_ = status;
  switch (status) {
    case opt::SolveStatus::kConverged:
      ++stats_.converged;
      break;
    case opt::SolveStatus::kMaxIterations:
      ++stats_.max_iteration_exits;
      break;
    case opt::SolveStatus::kTimeout:
      ++stats_.timeouts;
      obs::MetricsRegistry::global().add(metric_ids.timeouts);
      break;
    case opt::SolveStatus::kNumericalFailure:
      ++stats_.numerical_failures;
      break;
  }

  const MpcIndex& idx = formulation.index();
  bool accept = status != opt::SolveStatus::kNumericalFailure &&
                result.constraint_violation < 0.5;
  if (accept) {
    // A best-effort iterate (timeout / max-iterations) must still actuate
    // with finite values; check the inputs that will be applied.
    const double first[] = {result.x[idx.ts(0)], result.x[idx.tc(0)],
                            result.x[idx.dr(0)], result.x[idx.mz(0)]};
    for (const double v : first)
      if (!std::isfinite(v)) {
        accept = false;
        break;
      }
    if (!accept) ++stats_.rejected_plans;
  } else if (status != opt::SolveStatus::kNumericalFailure) {
    ++stats_.rejected_plans;
  }

  hvac::HvacInputs input;
  if (accept) {
    input.supply_temp_c = result.x[idx.ts(0)];
    input.coil_temp_c = result.x[idx.tc(0)];
    input.recirculation = result.x[idx.dr(0)];
    input.air_flow_kg_s = result.x[idx.mz(0)];
    // Saturate to the actuator box (C1/C5/C6/C7) before commanding the
    // plant. The active set counts a bound as met within its feasibility
    // tolerance, so a boundary-active input can overshoot by that much — an
    // epsilon that must not leak into actuation.
    input.supply_temp_c =
        std::min(input.supply_temp_c, hvac_.max_supply_temp_c);
    input.coil_temp_c = std::max(input.coil_temp_c, hvac_.min_coil_temp_c);
    input.recirculation =
        std::clamp(input.recirculation, 0.0, hvac_.max_recirculation);
    input.air_flow_kg_s = std::clamp(
        input.air_flow_kg_s, hvac_.min_air_flow_kg_s, hvac_.max_air_flow_kg_s);
    last_solution_ = result.x;
    last_working_set_ = result.active_ineq;
    planned_soc_.assign(idx.horizon() + 1, 0.0);
    for (std::size_t k = 0; k <= idx.horizon(); ++k)
      planned_soc_[k] = result.x[idx.soc(k)];
  } else {
    ++stats_.failures;
    obs::MetricsRegistry::global().add(metric_ids.failures);
    input = fallback_inputs(context);
    last_solution_.reset();  // stale plans make poor warm starts
    last_working_set_.clear();
  }
  last_plan_applied_ = accept;

  held_input_ = input;
  next_plan_time_s_ = context.time_s + options_.step_s;
  return input;
}

namespace {

void save_hvac_inputs(BinaryWriter& w, const hvac::HvacInputs& in) {
  w.write_f64(in.supply_temp_c);
  w.write_f64(in.coil_temp_c);
  w.write_f64(in.recirculation);
  w.write_f64(in.air_flow_kg_s);
}

hvac::HvacInputs load_hvac_inputs(BinaryReader& r) {
  hvac::HvacInputs in;
  in.supply_temp_c = r.read_f64();
  in.coil_temp_c = r.read_f64();
  in.recirculation = r.read_f64();
  in.air_flow_kg_s = r.read_f64();
  return in;
}

void save_qp_counters(BinaryWriter& w, const opt::QpPerfCounters& c) {
  w.write_size(c.solves);
  w.write_size(c.factorizations);
  w.write_size(c.warm_starts);
  w.write_size(c.peak_workspace_bytes);
  w.write_size(c.active_set_changes);
  w.write_u64(c.solve_time_ns);
  w.write_u64(c.factorize_time_ns);
}

opt::QpPerfCounters load_qp_counters(BinaryReader& r) {
  opt::QpPerfCounters c;
  c.solves = r.read_size();
  c.factorizations = r.read_size();
  c.warm_starts = r.read_size();
  c.peak_workspace_bytes = r.read_size();
  c.active_set_changes = r.read_size();
  c.solve_time_ns = r.read_u64();
  c.factorize_time_ns = r.read_u64();
  return c;
}

}  // namespace

void MpcClimateController::save_state(BinaryWriter& writer) const {
  writer.section("mpc");
  writer.write_bool(last_solution_.has_value());
  if (last_solution_)
    writer.write_f64_seq(last_solution_->ptr(), last_solution_->size());
  writer.write_size_vec(last_working_set_);
  writer.write_bool(held_input_.has_value());
  if (held_input_) save_hvac_inputs(writer, *held_input_);
  writer.write_f64(next_plan_time_s_);
  writer.write_f64_vec(planned_soc_);
  writer.write_u8(static_cast<std::uint8_t>(last_plan_status_));
  writer.write_bool(last_plan_applied_);
  writer.write_u64(last_step_qp_iterations_);
  writer.write_u64(last_step_solve_ns_);

  writer.section("mpc_stats");
  writer.write_size(stats_.plans);
  writer.write_size(stats_.failures);
  writer.write_size(stats_.sqp_iterations);
  writer.write_size(stats_.qp_iterations);
  writer.write_u64(stats_.solve_time_ns);
  writer.write_size(stats_.dual_warm_starts);
  writer.write_size(stats_.converged);
  writer.write_size(stats_.max_iteration_exits);
  writer.write_size(stats_.timeouts);
  writer.write_size(stats_.numerical_failures);
  writer.write_size(stats_.rejected_plans);
  save_qp_counters(writer, solver_.qp_counters());
  writer.write_size(stats_.solver_workspace_bytes);
}

void MpcClimateController::load_state(BinaryReader& reader) {
  reader.expect_section("mpc");
  if (reader.read_bool()) {
    last_solution_ = num::Vector(reader.read_f64_vec());
  } else {
    last_solution_.reset();
  }
  last_working_set_ = reader.read_size_vec();
  if (reader.read_bool()) {
    held_input_ = load_hvac_inputs(reader);
  } else {
    held_input_.reset();
  }
  next_plan_time_s_ = reader.read_f64();
  planned_soc_ = reader.read_f64_vec();
  last_plan_status_ = static_cast<opt::SolveStatus>(reader.read_u8());
  last_plan_applied_ = reader.read_bool();
  last_step_qp_iterations_ = reader.read_u64();
  last_step_solve_ns_ = reader.read_u64();

  reader.expect_section("mpc_stats");
  stats_.plans = reader.read_size();
  stats_.failures = reader.read_size();
  stats_.sqp_iterations = reader.read_size();
  stats_.qp_iterations = reader.read_size();
  stats_.solve_time_ns = reader.read_u64();
  stats_.dual_warm_starts = reader.read_size();
  stats_.converged = reader.read_size();
  stats_.max_iteration_exits = reader.read_size();
  stats_.timeouts = reader.read_size();
  stats_.numerical_failures = reader.read_size();
  stats_.rejected_plans = reader.read_size();
  // The restored counters go straight back into the solver, so the
  // resumed run's aggregate solver telemetry continues where it left off
  // (decide() re-reads them from the solver after every plan).
  stats_.solver = load_qp_counters(reader);
  solver_.restore_qp_counters(stats_.solver);
  stats_.solver_workspace_bytes = reader.read_size();
}

void MpcClimateController::fill_flight_record(
    obs::FlightRecord& record) const {
  record.qp_iterations = last_step_qp_iterations_;
  record.solve_time_ns = last_step_solve_ns_;
}

}  // namespace evc::core
