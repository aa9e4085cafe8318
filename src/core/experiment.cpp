#include "core/experiment.hpp"

#include <algorithm>

#include "control/fuzzy_controller.hpp"
#include "control/onoff_controller.hpp"
#include "util/expect.hpp"

namespace evc::core {

std::unique_ptr<ctl::ClimateController> make_onoff_controller(
    const EvParams& params) {
  return std::make_unique<ctl::OnOffController>(params.hvac);
}

std::unique_ptr<ctl::ClimateController> make_fuzzy_controller(
    const EvParams& params) {
  return std::make_unique<ctl::FuzzyController>(params.hvac);
}

std::unique_ptr<MpcClimateController> make_mpc_controller(
    const EvParams& params, const MpcOptions& options) {
  MpcOptions opts = options;
  opts.accessory_power_w = params.vehicle.accessory_power_w;
  return std::make_unique<MpcClimateController>(params.hvac, params.battery,
                                                opts);
}

MpcOptions make_relaxed_mpc_options(const MpcOptions& options) {
  MpcOptions relaxed = options;
  relaxed.name = "Relaxed MPC";
  relaxed.horizon = std::max<std::size_t>(4, options.horizon / 2);
  relaxed.sqp.max_iterations =
      std::max<std::size_t>(2, options.sqp.max_iterations / 2);
  relaxed.sqp.step_tolerance = options.sqp.step_tolerance * 10.0;
  relaxed.sqp.constraint_tolerance = options.sqp.constraint_tolerance * 10.0;
  // A hard wall-clock budget of its own, NOT inherited from the parent: the
  // relaxed tier exists to give a dependable answer when the full tier is
  // starved, and inheriting a starved budget would starve the fallback too.
  // The supervisor's deadline watchdog remains the real-time guard.
  relaxed.sqp.time_budget_s = 0.05;
  return relaxed;
}

std::unique_ptr<ctl::SupervisedController> make_supervised_mpc_controller(
    const EvParams& params, const MpcOptions& options,
    const ctl::SupervisorOptions& supervisor_options) {
  std::vector<std::unique_ptr<ctl::ClimateController>> tiers;
  tiers.push_back(make_mpc_controller(params, options));
  tiers.push_back(
      make_mpc_controller(params, make_relaxed_mpc_options(options)));
  tiers.push_back(std::make_unique<ctl::PidClimateController>(params.hvac));
  tiers.push_back(make_onoff_controller(params));
  // The FDIR layer's coulomb-counting virtual sensor needs the actual pack
  // constants; the caller configures everything else about the FDI setup.
  ctl::SupervisorOptions configured = supervisor_options;
  configured.fdi.battery_capacity_ah = params.battery.nominal_capacity_ah;
  configured.fdi.battery_nominal_voltage_v = params.battery.nominal_voltage_v;
  configured.fdi.accessory_power_w = params.vehicle.accessory_power_w;
  return std::make_unique<ctl::SupervisedController>(
      std::move(tiers), params.hvac, configured);
}

std::vector<ControllerRun> compare_controllers(
    const EvParams& params, const drive::DriveProfile& profile,
    const SimulationOptions& sim_options, const MpcOptions& mpc_options) {
  ClimateSimulation simulation(params);
  std::vector<ControllerRun> runs;

  const auto run_one = [&](ctl::ClimateController& controller) {
    const SimulationResult result =
        simulation.run(controller, profile, sim_options);
    runs.push_back({controller.name(), result.metrics});
  };

  auto onoff = make_onoff_controller(params);
  run_one(*onoff);
  auto fuzzy = make_fuzzy_controller(params);
  run_one(*fuzzy);
  auto mpc = make_mpc_controller(params, mpc_options);
  run_one(*mpc);
  return runs;
}

double improvement_percent(double baseline, double ours) {
  EVC_EXPECT(baseline != 0.0, "improvement over a zero baseline");
  return (baseline - ours) / baseline * 100.0;
}

}  // namespace evc::core
