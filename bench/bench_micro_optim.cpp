// Micro-benchmarks (google-benchmark): per-call latency of the hot kernels
// behind the figures — a full SQP solve of one MPC window, a single MPC
// planning step, the plant/battery models, and the session service's
// per-request checkpoint round trip.
//
// These bound the controller's real-time budget: the paper's methodology
// is only deployable if a plan completes well within the control period.
#include <benchmark/benchmark.h>

#include "battery/battery_pack.hpp"
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/mpc_controller.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "hvac/hvac_plant.hpp"
#include "optim/condensed_qp.hpp"
#include "optim/sqp.hpp"
#include "powertrain/power_train.hpp"
#include "obs/trace.hpp"

namespace {

using namespace evc;

/// Tag an MPC-path record with the QP engine it actually exercised, so
/// runs from builds with different defaults stay distinguishable in stored
/// benchmark JSON.
void set_backend_label(benchmark::State& state, opt::QpBackend backend) {
  state.SetLabel(std::string("backend=") + opt::to_string(backend));
}

core::MpcFormulation make_window_formulation(std::size_t horizon) {
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.5;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, 9.0);
  w.outside_temp_c.assign(horizon, 35.0);
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), core::MpcWeights{},
                              w);
}

void BM_SqpMpcWindow(benchmark::State& state) {
  const auto horizon = static_cast<std::size_t>(state.range(0));
  const auto f = make_window_formulation(horizon);
  core::MpcOptions opts;
  const opt::SqpSolver solver(opts.sqp);
  const num::Vector z0 = f.cold_start();
  set_backend_label(state, opts.sqp.backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(f, z0));
  }
}
BENCHMARK(BM_SqpMpcWindow)->Arg(4)->Arg(8)->Arg(12)->Unit(
    benchmark::kMillisecond);

void BM_MpcPlanStep(benchmark::State& state) {
  core::MpcClimateController mpc(hvac::default_hvac_params(),
                                 bat::leaf_24kwh_params());
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 25.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(120, 9e3);
  c.outside_temp_forecast_c.assign(120, 35.0);
  set_backend_label(state, mpc.options().sqp.backend);
  for (auto _ : state) {
    mpc.reset();  // force a fresh (cold-start) plan each call
    benchmark::DoNotOptimize(mpc.decide(c));
  }
}
BENCHMARK(BM_MpcPlanStep)->Unit(benchmark::kMillisecond);

// Steady-state replanning: each decide() is a fresh plan (time advances one
// control period) but warm-started from the previous plan's shifted primal
// and QP working set.
void BM_MpcPlanStepWarm(benchmark::State& state) {
  core::MpcClimateController mpc(hvac::default_hvac_params(),
                                 bat::leaf_24kwh_params());
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 25.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(120, 9e3);
  c.outside_temp_forecast_c.assign(120, 35.0);
  set_backend_label(state, mpc.options().sqp.backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc.decide(c));
    c.time_s += mpc.options().step_s;  // next call replans
  }
}
BENCHMARK(BM_MpcPlanStepWarm)->Unit(benchmark::kMillisecond);

void BM_HvacPlantStep(benchmark::State& state) {
  hvac::HvacPlant plant(hvac::default_hvac_params(), 25.0);
  hvac::HvacInputs in;
  in.air_flow_kg_s = 0.15;
  in.recirculation = 0.5;
  in.coil_temp_c = 8.0;
  in.supply_temp_c = 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plant.step(in, 35.0, 1.0));
  }
}
BENCHMARK(BM_HvacPlantStep);

void BM_PowerTrainEval(benchmark::State& state) {
  pt::PowerTrain ptm(pt::nissan_leaf_params());
  drive::DriveSample s;
  s.speed_mps = 18.0;
  s.accel_mps2 = 0.7;
  s.slope_percent = 1.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptm.power(s));
  }
}
BENCHMARK(BM_PowerTrainEval);

void BM_BatteryPackStep(benchmark::State& state) {
  bat::BatteryPack pack(bat::leaf_24kwh_params(), 90.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack.step(12e3, 1.0));
    if (pack.soc_percent() < 10.0) pack.reset(90.0);
  }
}
BENCHMARK(BM_BatteryPackStep);

// What the session service pays per request on a resident vehicle: a
// fresh session over the shard's controller, restore of the vehicle's
// checkpoint, one step, and a new checkpoint. The vehicle is 41 steps into
// ECE_EUDC at 35 C under the service's defaults (32-record flight ring, no
// traces, shared motor-power trace), so the timed step holds the plan made
// at t = 40 s, as four requests in five do.
void BM_SessionRoundTrip(benchmark::State& state) {
  const core::EvParams params;
  const drive::DriveProfile profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0);
  const std::vector<double> motor_power =
      core::precompute_motor_power(params, profile);
  const auto controller = core::make_supervised_mpc_controller(params);
  core::SimulationOptions options;
  options.initial_soc_percent = 80.0;
  options.initial_cabin_temp_c = 34.0;
  options.record_traces = false;
  options.flight_recorder_capacity = 32;
  options.motor_power_cache = &motor_power;
  std::string blob;
  {
    core::SimulationSession session(params, *controller, profile, options);
    for (int i = 0; i < 41; ++i) session.advance();
    blob = session.checkpoint();
  }
  for (auto _ : state) {
    core::SimulationSession session(params, *controller, profile, options);
    session.restore(blob);
    session.advance();
    benchmark::DoNotOptimize(session.checkpoint());
  }
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_SessionRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the tracer guard brackets the run:
// EVC_TRACE=trace.json captures qp/sqp/mpc spans from inside the timed
// loops (the overhead-guard CI job compares this binary with and without
// the variable set).
int main(int argc, char** argv) {
  evc::obs::TraceEnvGuard trace_guard;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
