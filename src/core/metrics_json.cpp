#include "core/metrics_json.hpp"

#include "util/json.hpp"

namespace evc::core {

namespace {

void visit_qp_counters(const opt::QpPerfCounters& c, obs::FieldSink& sink) {
  sink.field_size("solves", c.solves);
  sink.field_size("factorizations", c.factorizations);
  sink.field_size("warm_starts", c.warm_starts);
  sink.field_size("peak_workspace_bytes", c.peak_workspace_bytes);
  sink.field_size("condensed_solves", c.condensed_solves);
  sink.field_size("condense_rebuilds", c.condense_rebuilds);
  sink.field_size("active_set_changes", c.active_set_changes);
  sink.field_u64("solve_time_ns", c.solve_time_ns);
  sink.field_u64("factorize_time_ns", c.factorize_time_ns);
}

void visit_fdi_sensor(const fdi::FdiSensorStats& s, obs::FieldSink& sink) {
  sink.field_size("steps", s.steps);
  sink.field_size("gate_exceedances", s.gate_exceedances);
  sink.field_size("fused_steps", s.fused_steps);
  sink.field_size("substituted_steps", s.substituted_steps);
  sink.field_f64("nis_mean",
                 s.nis_samples > 0
                     ? s.nis_sum / static_cast<double>(s.nis_samples)
                     : 0.0);
  sink.field_f64("nis_max", s.nis_max);
  sink.field_size("nis_samples", s.nis_samples);
  sink.field_size("detections", s.health.detections);
  sink.field_size("false_trips", s.health.false_trips);
  sink.field_size("isolations", s.health.isolations);
  sink.field_size("re_trips", s.health.re_trips);
  sink.field_size("recovery_probes", s.health.recovery_probes);
  sink.field_size("readmissions", s.health.readmissions);
}

}  // namespace

void visit_fields(const TripMetrics& m, obs::FieldSink& sink) {
  sink.field_f64("duration_s", m.duration_s);
  sink.field_f64("distance_km", m.distance_km);
  sink.field_f64("avg_motor_power_w", m.avg_motor_power_w);
  sink.field_f64("avg_hvac_power_w", m.avg_hvac_power_w);
  sink.field_f64("avg_total_power_w", m.avg_total_power_w);
  sink.field_f64("hvac_energy_j", m.hvac_energy_j);
  sink.field_f64("total_energy_j", m.total_energy_j);
  sink.field_f64("initial_soc_percent", m.initial_soc_percent);
  sink.field_f64("final_soc_percent", m.final_soc_percent);
  sink.field_f64("soc_deviation_percent", m.stress.soc_deviation);
  sink.field_f64("soc_average_percent", m.stress.soc_average);
  sink.field_f64("delta_soh_percent", m.delta_soh_percent);
  sink.field_f64("cycles_to_end_of_life", m.cycles_to_end_of_life);
  sink.field_f64("consumption_wh_per_km", m.consumption_wh_per_km);
  sink.field_f64("estimated_range_km", m.estimated_range_km);
  sink.begin_group("comfort");
  sink.field_f64("fraction_outside", m.comfort.fraction_outside);
  sink.field_f64("max_abs_error_c", m.comfort.max_abs_error_c);
  sink.field_f64("rms_error_c", m.comfort.rms_error_c);
  sink.field_f64("avg_ppd_percent", m.comfort.avg_ppd_percent);
  sink.end_group();
}

void visit_fields(const MpcPlanStats& stats, obs::FieldSink& sink) {
  sink.field_size("plans", stats.plans);
  sink.field_size("failures", stats.failures);
  sink.field_size("sqp_iterations", stats.sqp_iterations);
  sink.field_size("qp_iterations", stats.qp_iterations);
  sink.field_u64("solve_time_ns", stats.solve_time_ns);
  sink.field_size("dual_warm_starts", stats.dual_warm_starts);
  sink.field_size("converged", stats.converged);
  sink.field_size("max_iteration_exits", stats.max_iteration_exits);
  sink.field_size("timeouts", stats.timeouts);
  sink.field_size("numerical_failures", stats.numerical_failures);
  sink.field_size("rejected_plans", stats.rejected_plans);
  sink.begin_group("solver");
  visit_qp_counters(stats.solver, sink);
  sink.end_group();
  sink.field_size("workspace_bytes", stats.solver_workspace_bytes);
}

void visit_fields(const ctl::SupervisorStats& stats, obs::FieldSink& sink) {
  sink.field_size("steps", stats.steps);
  sink.field_size("sanitized_steps", stats.sanitized_steps);
  sink.field_size("sanitized_values", stats.sanitized_values);
  sink.field_size("deadline_misses", stats.deadline_misses);
  sink.field_size("health_degradations", stats.health_degradations);
  sink.field_size("invalid_outputs", stats.invalid_outputs);
  sink.field_size("output_clamps", stats.output_clamps);
  sink.field_size("demotions", stats.demotions);
  sink.field_size("promotions", stats.promotions);
  sink.field_size("hold_expirations", stats.hold_expirations);
  sink.field_size("fdi_substituted_steps", stats.fdi_substituted_steps);
  sink.field_size("forced_demotions", stats.forced_demotions);
  sink.field_size_array("tier_steps", stats.tier_steps);
}

void visit_fields(const sim::FaultInjectionStats& stats,
                  obs::FieldSink& sink) {
  sink.field_size("steps", stats.steps);
  sink.field_size("faulted_steps", stats.faulted_steps);
  sink.field_size("episodes", stats.episodes);
  sink.field_size("bias_steps", stats.bias_steps);
  sink.field_size("stuck_steps", stats.stuck_steps);
  sink.field_size("dropout_steps", stats.dropout_steps);
  sink.field_size("stale_steps", stats.stale_steps);
  sink.field_size("spike_steps", stats.spike_steps);
  sink.field_size("quantization_steps", stats.quantization_steps);
}

void visit_fields(const fdi::FdiStats& stats, obs::FieldSink& sink) {
  sink.field_size("steps", stats.steps);
  sink.field_size("substituted_steps", stats.substituted_steps);
  sink.begin_group("cabin");
  visit_fdi_sensor(stats.cabin, sink);
  sink.end_group();
  sink.begin_group("outside");
  visit_fdi_sensor(stats.outside, sink);
  sink.end_group();
  sink.begin_group("soc");
  visit_fdi_sensor(stats.soc, sink);
  sink.end_group();
}

namespace {

template <typename Stats>
std::string render_json(const Stats& stats) {
  obs::JsonFieldSink sink;
  visit_fields(stats, sink);
  return sink.str();
}

}  // namespace

std::string to_json(const TripMetrics& metrics) {
  return render_json(metrics);
}
std::string to_json(const MpcPlanStats& stats) { return render_json(stats); }
std::string to_json(const ctl::SupervisorStats& stats) {
  return render_json(stats);
}
std::string to_json(const sim::FaultInjectionStats& stats) {
  return render_json(stats);
}
std::string to_json(const fdi::FdiStats& stats) { return render_json(stats); }

std::string to_json(const std::vector<ControllerRun>& runs) {
  JsonWriter json;
  json.begin_array();
  for (const ControllerRun& run : runs) {
    json.begin_object();
    json.key("controller").value(run.controller);
    json.key("metrics");
    json.raw_value(to_json(run.metrics));
    json.end_object();
  }
  json.end_array();
  return json.str();
}

namespace {

template <typename Stats>
void publish(const Stats& stats, const std::string& prefix) {
  obs::RegistryFieldSink sink(prefix);
  visit_fields(stats, sink);
}

}  // namespace

void publish_metrics(const TripMetrics& metrics, const std::string& prefix) {
  publish(metrics, prefix);
}
void publish_metrics(const MpcPlanStats& stats, const std::string& prefix) {
  publish(stats, prefix);
}
void publish_metrics(const ctl::SupervisorStats& stats,
                     const std::string& prefix) {
  publish(stats, prefix);
}
void publish_metrics(const sim::FaultInjectionStats& stats,
                     const std::string& prefix) {
  publish(stats, prefix);
}
void publish_metrics(const fdi::FdiStats& stats, const std::string& prefix) {
  publish(stats, prefix);
}

}  // namespace evc::core
