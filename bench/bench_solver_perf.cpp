// Solver perf envelope — machine-readable.
//
// Times the optimization hot path (SQP on one MPC window, warm
// receding-horizon planning, the warm active-set resolve) and emits
// per-bench wall time plus the QP solver's perf counters as JSON
// (BENCH_solver.json in CI). Unlike
// bench_micro_optim (google-benchmark, human-oriented), this harness is
// plain chrono so the output schema is ours and diffable across runs.
// Each row repeats its work for about 50 ms (at the default MPC) on the
// 4-vCPU reference guest, so one scheduler hiccup is a small share of it.
// The output:
//   { "schema",
//     "benches": [ {"name", "reps", "wall_ns", "ns_per_rep",
//                   "solver": {<QpPerfCounters>}, ...}, ... ],
//     "backend", "simd" }
//
// Usage: bench_solver_perf [--out PATH]   (default BENCH_solver.json)
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/metrics_json.hpp"
#include "core/mpc_controller.hpp"
#include "hvac/hvac_params.hpp"
#include "numerics/factorization.hpp"
#include "numerics/simd.hpp"
#include "optim/dense_active_set.hpp"
#include "optim/qp.hpp"
#include "optim/sqp.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "obs/trace.hpp"

namespace {

using namespace evc;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

opt::QpProblem random_qp(std::size_t n, std::size_t mi, std::uint64_t seed) {
  SplitMix64 rng(seed);
  opt::QpProblem p;
  num::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = num::Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-2, 2);
  p.e_mat = num::Matrix(0, n);
  p.e_vec = num::Vector(0);
  p.a_mat = num::Matrix(mi, n);
  p.b_vec = num::Vector(mi);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.a_mat(r, c) = rng.uniform(-1, 1);
    p.b_vec[r] = rng.uniform(0.5, 2.0);
  }
  return p;
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

void write_counters(JsonWriter& json, const opt::QpPerfCounters& c) {
  json.begin_object();
  json.key("solves").value(c.solves);
  json.key("factorizations").value(c.factorizations);
  json.key("warm_starts").value(c.warm_starts);
  json.key("peak_workspace_bytes").value(c.peak_workspace_bytes);
  json.key("active_set_changes").value(c.active_set_changes);
  json.key("solve_time_ns").value(c.solve_time_ns);
  json.key("factorize_time_ns").value(c.factorize_time_ns);
  json.end_object();
}

void write_bench_header(JsonWriter& json, const std::string& name,
                        std::size_t reps, std::uint64_t wall_ns) {
  json.begin_object();
  json.key("name").value(name);
  json.key("reps").value(reps);
  json.key("wall_ns").value(wall_ns);
  json.key("ns_per_rep").value(wall_ns / (reps > 0 ? reps : 1));
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("evclimate-solver-bench-v1");
  json.key("benches");
  json.begin_array();

  // SQP on one MPC window, each solve's final working set seeding the next.
  {
    const auto f = make_window_formulation(12);
    core::MpcOptions opts;
    const opt::SqpSolver solver(opts.sqp);
    const num::Vector z0 = f.cold_start();
    const std::size_t reps = 35;
    std::vector<std::size_t> warm;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      const auto result = solver.solve(f, z0, r == 0 ? nullptr : &warm);
      if (!result.usable()) return 1;
      warm = result.active_ineq;
    }
    write_bench_header(json, "sqp_mpc_window_h12", reps, ns_since(start));
    json.key("solver");
    write_counters(json, solver.qp_counters());
    json.end_object();
    std::cerr << "  sqp_mpc_window_h12 done\n";
  }

  // Warm receding-horizon planning: the controller replans every step_s
  // with the shifted primal and working set, exactly the closed-loop hot
  // path.
  {
    core::MpcClimateController mpc(hvac::default_hvac_params(),
                                   bat::leaf_24kwh_params());
    ctl::ControlContext c;
    c.dt_s = 1.0;
    c.cabin_temp_c = 25.0;
    c.outside_temp_c = 35.0;
    c.soc_percent = 88.0;
    c.motor_power_forecast_w.assign(120, 9e3);
    c.outside_temp_forecast_c.assign(120, 35.0);
    // Untimed warm-up: let the receding-horizon replan reach its steady
    // state (primal and working-set warm starts settled, SQP at its fixed
    // point) so the timed section measures the warm plan step the name
    // claims, not the cold transient.
    const std::size_t warmup = 24;
    for (std::size_t r = 0; r < warmup; ++r) {
      mpc.decide(c);
      c.time_s += mpc.options().step_s;
    }
    const std::size_t plans = 1000;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < plans; ++r) {
      mpc.decide(c);
      c.time_s += mpc.options().step_s;  // next call replans
    }
    write_bench_header(json, "mpc_plan_step_warm", plans, ns_since(start));
    json.key("mpc").raw_value(core::to_json(mpc.stats()));
    json.end_object();
    std::cerr << "  mpc_plan_step_warm done\n";
  }

  // Warm active-set resolve in isolation: one dense QP, g nudged slightly
  // each rep, previous working set seeding the next solve — the inner
  // kernel of the condensed plan step.
  {
    const std::size_t n = 60;
    const auto problem = random_qp(n, 2 * n, 42);
    num::CholeskyFactorization h_chol;
    if (!h_chol.factorize(problem.h)) return 1;
    opt::DenseActiveSetSolver active_set;
    num::Vector v(n), lambda(2 * n);
    num::Vector g = problem.g;
    std::vector<std::size_t> warm;
    // Cold solve outside the timer establishes the working set.
    if (!active_set
             .solve(h_chol, problem.h, problem.a_mat, nullptr, g,
                    problem.b_vec, warm, v, lambda)
             .usable())
      return 1;
    const std::size_t reps = 1700;
    SplitMix64 rng(7);
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      warm = active_set.active_set();
      for (std::size_t i = 0; i < n; ++i)
        g[i] = problem.g[i] + 1e-3 * rng.uniform(-1, 1);
      const auto out =
          active_set.solve(h_chol, problem.h, problem.a_mat, nullptr, g,
                           problem.b_vec, warm, v, lambda);
      if (!out.usable()) return 1;
    }
    write_bench_header(json, "dense_active_set_resolve", reps,
                       ns_since(start));
    json.end_object();
    std::cerr << "  dense_active_set_resolve done\n";
  }

  json.end_array();
  // The QP backend the MPC benches plan with by default and the SIMD ISA
  // this run executed, so artifacts from different builds or hosts stay
  // distinguishable. Written after the rows: the output buffer then grows
  // exactly as it did without these keys while the benches run, and the
  // MPC rows are sensitive to where their buffers land on the heap
  // (mpc_plan_step_warm read ~12 % slower with the keys written first).
  json.key("backend").value(opt::to_string(core::MpcOptions{}.sqp.backend));
  json.key("simd").value(num::simd::to_string(num::simd::active_isa()));
  json.end_object();

  const std::string doc = json.str();
  std::ofstream out(out_path);
  out << doc << "\n";
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << doc << "\n";
  return 0;
}
