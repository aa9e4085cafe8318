#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "util/expect.hpp"
#include "util/serialize.hpp"

namespace evc::core {

ClimateSimulation::ClimateSimulation(EvParams params) : params_(params) {
  params_.vehicle.validate();
  params_.hvac.validate();
  params_.battery.validate();
}

std::vector<double> precompute_motor_power(const EvParams& params,
                                           const drive::DriveProfile& profile) {
  return pt::PowerTrain(params.vehicle).power_trace(profile);
}

SimulationResult ClimateSimulation::run(
    ctl::ClimateController& controller, const drive::DriveProfile& profile,
    const SimulationOptions& options) const {
  SimulationSession session(params_, controller, profile, options);
  session.run_to_completion();
  return session.finish();
}

SimulationSession::SimulationSession(const EvParams& params,
                                     ctl::ClimateController& controller,
                                     const drive::DriveProfile& profile,
                                     const SimulationOptions& options)
    : params_(params), controller_(controller), profile_(profile),
      options_(options),
      ev_(params, options.initial_soc_percent,
          options.initial_cabin_temp_c.value_or(params.hvac.target_temp_c)),
      flight_(options.flight_recorder_capacity) {
  EVC_EXPECT(!profile.empty(), "simulation needs a non-empty drive profile");
  EVC_EXPECT(options.initial_soc_percent > 0.0 &&
                 options.initial_soc_percent <= 100.0,
             "initial SoC outside (0, 100]");
  dt_ = profile.dt();
  n_ = profile.size();

  controller_.reset();

  // Algorithm 1 lines 2–5: motor power from the drive profile, known for
  // the whole trip before departure (GPS route knowledge).
  if (options.motor_power_cache != nullptr) {
    EVC_EXPECT(options.motor_power_cache->size() == n_,
               "motor-power cache length does not match the profile");
    motor_power_ = *options.motor_power_cache;
  } else {
    own_motor_power_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i)
      own_motor_power_[i] =
          ev_.power_train().power(profile[i]).electrical_power_w;
    motor_power_ = own_motor_power_;
  }

  forecast_samples_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(options.forecast_horizon_s / dt_)));
}

void SimulationSession::advance() {
  EVC_EXPECT(!done(), "advance() past the end of the drive profile");
  const std::size_t t = step_;
  obs::Tracer::global().set_sim_time(static_cast<double>(t) * dt_);
  EVC_TRACE_SPAN("sim.step");

  // Algorithm 1 lines 14–15: receding-horizon forecast.
  ctl::ControlContext context;
  context.time_s = static_cast<double>(t) * dt_;
  context.dt_s = dt_;
  context.cabin_temp_c = ev_.cabin_temp_c();
  context.outside_temp_c = profile_[t].ambient_c;
  context.soc_percent = ev_.soc_percent();
  context.motor_power_forecast_w.resize(forecast_samples_);
  context.outside_temp_forecast_c.resize(forecast_samples_);
  for (std::size_t j = 0; j < forecast_samples_; ++j) {
    const std::size_t i = std::min(t + j, n_ - 1);
    context.motor_power_forecast_w[j] = motor_power_[i];
    context.outside_temp_forecast_c[j] = profile_[i].ambient_c;
  }

  // Sensor/forecast corruption happens between plant and controller: the
  // controller decides from the faulted view, the plant stays truthful.
  if (options_.fault_injector != nullptr)
    options_.fault_injector->apply(context);

  // Algorithm 1 lines 16–22: decide, apply to the plant, update battery.
  const hvac::HvacInputs inputs = controller_.decide(context);
  const EvStep step = ev_.step(profile_[t], inputs, dt_);

  cabin_trace_.push_back(step.hvac.cabin_temp_c);
  last_hvac_power_w_ = step.hvac.power.total();
  motor_acc_ += step.motor_power_w;
  hvac_acc_ += step.hvac.power.total();
  total_acc_ += step.total_power_w;

  if (options_.record_traces) {
    const double time = context.time_s;
    recorder_.record("cabin_temp_c", time, step.hvac.cabin_temp_c);
    recorder_.record("outside_temp_c", time, profile_[t].ambient_c);
    recorder_.record("motor_power_w", time, step.motor_power_w);
    recorder_.record("hvac_power_w", time, step.hvac.power.total());
    recorder_.record("heater_w", time, step.hvac.power.heater_w);
    recorder_.record("cooler_w", time, step.hvac.power.cooler_w);
    recorder_.record("fan_w", time, step.hvac.power.fan_w);
    recorder_.record("soc_percent", time, step.soc_percent);
    recorder_.record("speed_mps", time, profile_[t].speed_mps);
  }

  // Flight recorder: one structured record per control step. The controller
  // stack fills its own fields (tier, FDI health, solver effort) through
  // the fill_flight_record() hook; everything else comes from the applied
  // actuation and the plant's post-step state.
  obs::FlightRecord rec;
  rec.time_s = static_cast<double>(t) * dt_;
  rec.dt_s = dt_;
  rec.supply_temp_c = inputs.supply_temp_c;
  rec.coil_temp_c = inputs.coil_temp_c;
  rec.recirculation = inputs.recirculation;
  rec.air_flow_kg_s = inputs.air_flow_kg_s;
  rec.cabin_temp_c = step.hvac.cabin_temp_c;
  rec.outside_temp_c = profile_[t].ambient_c;
  rec.soc_percent = step.soc_percent;
  rec.motor_power_w = step.motor_power_w;
  rec.hvac_power_w = step.hvac.power.total();
  controller_.fill_flight_record(rec);
  flight_.record(rec);
  if (rec.tier > last_flight_tier_) {
    // The stack just fell back a tier: dump the black box while the steps
    // leading up to the demotion are still in the ring.
    if (!options_.flight_dump_path.empty())
      flight_.dump_json(options_.flight_dump_path);
    last_flight_tier_ = rec.tier;
  }

  ++step_;
}

void SimulationSession::run_to_completion() {
  while (!done()) advance();
}

SimulationResult SimulationSession::finish() {
  SimulationResult result;
  result.recorder = std::move(recorder_);

  // Algorithm 1 line 23: ΔSoH of the discharge cycle.
  TripMetrics& m = result.metrics;
  const double dn = static_cast<double>(n_);
  m.duration_s = profile_.duration();
  m.distance_km = profile_.total_distance_m() / 1000.0;
  m.avg_motor_power_w = motor_acc_ / dn;
  m.avg_hvac_power_w = hvac_acc_ / dn;
  m.avg_total_power_w = total_acc_ / dn;
  m.hvac_energy_j = hvac_acc_ * dt_;
  m.total_energy_j = total_acc_ * dt_;
  m.initial_soc_percent = options_.initial_soc_percent;
  m.final_soc_percent = ev_.soc_percent();
  m.stress = ev_.bms().cycle_stress();
  m.delta_soh_percent = ev_.bms().cycle_delta_soh();
  {
    bat::SohModel soh(params_.battery);
    m.cycles_to_end_of_life = soh.cycles_to_end_of_life(m.delta_soh_percent);
  }
  if (m.distance_km > 1e-6) {
    m.consumption_wh_per_km = m.total_energy_j / 3600.0 / m.distance_km;
    const double usable_wh = params_.battery.nominal_capacity_ah *
                             params_.battery.nominal_voltage_v *
                             (options_.initial_soc_percent -
                              params_.bms.min_soc_percent) /
                             100.0;
    if (m.consumption_wh_per_km > 1e-9)
      m.estimated_range_km = usable_wh / m.consumption_wh_per_km;
  }
  m.comfort = comfort_stats(cabin_trace_, params_.hvac.comfort_min_c,
                            params_.hvac.comfort_max_c,
                            params_.hvac.target_temp_c);
  return result;
}

std::string SimulationSession::checkpoint() const {
  BinaryWriter writer;
  writer.section("session");
  writer.write_size(step_);
  writer.write_f64(motor_acc_);
  writer.write_f64(hvac_acc_);
  writer.write_f64(total_acc_);
  writer.write_f64_vec(cabin_trace_);
  writer.write_f64(last_hvac_power_w_);
  recorder_.save_state(writer);
  ev_.save_state(writer);
  writer.section("controller");
  controller_.save_state(writer);
  writer.section("faults");
  writer.write_bool(options_.fault_injector != nullptr);
  if (options_.fault_injector != nullptr)
    options_.fault_injector->save_state(writer);
  flight_.save_state(writer);
  writer.write_u32(last_flight_tier_);
  return sim::Checkpoint::wrap(writer.take()).encode();
}

void SimulationSession::restore(const std::string& encoded) {
  const sim::Checkpoint ckpt = sim::Checkpoint::decode(encoded);
  BinaryReader reader(ckpt.payload());
  reader.expect_section("session");
  step_ = reader.read_size();
  if (step_ > n_) throw SerializationError("checkpoint beyond profile end");
  motor_acc_ = reader.read_f64();
  hvac_acc_ = reader.read_f64();
  total_acc_ = reader.read_f64();
  cabin_trace_ = reader.read_f64_vec();
  last_hvac_power_w_ = reader.read_f64();
  recorder_.load_state(reader);
  ev_.load_state(reader);
  reader.expect_section("controller");
  controller_.load_state(reader);
  reader.expect_section("faults");
  const bool had_injector = reader.read_bool();
  if (had_injector != (options_.fault_injector != nullptr))
    throw SerializationError("fault injector configuration mismatch");
  if (options_.fault_injector != nullptr)
    options_.fault_injector->load_state(reader);
  flight_.load_state(reader);
  last_flight_tier_ = reader.read_u32();
  if (!reader.at_end())
    throw SerializationError("trailing bytes after checkpoint payload");
}

void SimulationSession::checkpoint_to_file(const std::string& path) const {
  sim::Checkpoint::decode(checkpoint()).write_file(path);
}

void SimulationSession::restore_from_file(const std::string& path) {
  restore(sim::Checkpoint::read_file(path).encode());
}

}  // namespace evc::core
