// Paper results — Fig. 6, Fig. 7, Fig. 8 and Table I from one set of
// closed-loop runs, plus every cell of them as JSON for the paper gate.
//
// The cells are the paper's five drive profiles (NEDC, US06, ECE_EUDC,
// SC03, UDDS) at 35 C and ECE_EUDC at Table I's six ambients (43, 35, 32,
// 21, 10, 0 C). ECE_EUDC at 35 C belongs to both, so ten cells of three
// controllers (On/Off [8,9], fuzzy [10], our battery lifetime-aware MPC)
// make 30 runs, each run once, one cell per pool worker. Every run records
// its trace, so Fig. 6's precool correlations are measured in every cell;
// the table prints the ECE_EUDC 35 C cell and its MPC trace goes to
// fig6_precool.csv.
//
// Paper's shapes:
//   Fig. 6  the MPC shifts HVAC power away from motor peaks (negative
//           corr(motor, HVAC)) and precools the cabin before them;
//           reactive baselines show no such coupling.
//   Fig. 7  our ΔSoH is always lowest (~14 % average improvement), the
//           largest improvement on ECE_EUDC.
//   Fig. 8  our HVAC power is lowest on every profile, on average ~39 %
//           below On/Off and ~6 % below fuzzy.
//   Table I our HVAC power is lowest at every ambient; the ΔSoH
//           improvement grows with the conditioning load and peaks at 0 C.
//
// The JSON holds, per cell and controller: ΔSoH, mean HVAC power, the share
// of time outside the comfort zone, max and RMS |Tz − target|, and the two
// Fig. 6 correlations. `tools/check_bench.py paper` gates a run against the
// golden bench/baselines/PAPER_results.json.
//
// Usage: bench_paper [--out PATH]   (default PAPER_results.json)
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using namespace evc;

constexpr std::array<double, 6> kTable1Ambients{43, 35, 32, 21, 10, 0};
constexpr std::size_t kOnOffRun = 0, kFuzzyRun = 1, kMpcRun = 2;
constexpr std::array<const char*, 3> kJsonNames{"onoff", "fuzzy", "mpc"};

double correlation(const std::vector<double>& a,
                   const std::vector<double>& b) {
  const double ma = mean_of(a), mb = mean_of(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  return num / std::sqrt(da * db + 1e-12);
}

struct ControllerRun {
  core::TripMetrics metrics;
  double corr_motor_hvac = 0.0;  ///< Fig. 6: corr(motor, HVAC)
  double corr_motor_dtz = 0.0;   ///< Fig. 6: corr(motor, dTz/dt)
};

struct Cell {
  drive::StandardCycle cycle;
  double ambient_c = 0.0;
  std::array<ControllerRun, 3> runs;  ///< On/Off, fuzzy, MPC
  /// The MPC's motor power, HVAC power and cabin temperature, kept for the
  /// Fig. 6 cell only.
  sim::StateRecorder precool;
};

bool is_fig6_cell(drive::StandardCycle cycle, double ambient_c) {
  return cycle == drive::StandardCycle::kEceEudc &&
         ambient_c == bench::kDefaultAmbientC;
}

Cell run_cell(drive::StandardCycle cycle, double ambient_c) {
  const core::EvParams params;
  const auto profile = drive::make_cycle_profile(cycle, ambient_c);
  core::ClimateSimulation sim(params);
  Cell cell{cycle, ambient_c, {}, {}};

  const auto run = [&](ctl::ClimateController& controller, std::size_t slot) {
    const auto result = sim.run(controller, profile);
    const auto& motor = result.recorder.values("motor_power_w");
    const auto& hvac = result.recorder.values("hvac_power_w");
    const auto& tz = result.recorder.values("cabin_temp_c");
    std::vector<double> dtz(tz.size(), 0.0);
    for (std::size_t i = 1; i < tz.size(); ++i) dtz[i] = tz[i] - tz[i - 1];
    cell.runs[slot] = {result.metrics, correlation(motor, hvac),
                       correlation(motor, dtz)};
    if (slot == kMpcRun && is_fig6_cell(cycle, ambient_c)) {
      const auto& t = result.recorder.times("cabin_temp_c");
      for (std::size_t i = 0; i < tz.size(); ++i) {
        cell.precool.record("motor_power_w", t[i], motor[i]);
        cell.precool.record("hvac_power_w", t[i], hvac[i]);
        cell.precool.record("cabin_temp_c", t[i], tz[i]);
      }
    }
  };

  auto onoff = core::make_onoff_controller(params);
  run(*onoff, kOnOffRun);
  auto fuzzy = core::make_fuzzy_controller(params);
  run(*fuzzy, kFuzzyRun);
  auto mpc = core::make_mpc_controller(params);
  run(*mpc, kMpcRun);
  return cell;
}

void print_fig6(const Cell& cell) {
  TextTable table({"controller", "corr(motor, HVAC)", "corr(motor, dTz/dt)"});
  const std::array<const char*, 3> labels{bench::kOnOff, bench::kFuzzy,
                                          bench::kOurs};
  for (std::size_t k = 0; k < labels.size(); ++k)
    table.add_row({labels[k], TextTable::num(cell.runs[k].corr_motor_hvac, 3),
                   TextTable::num(cell.runs[k].corr_motor_dtz, 3)});
  std::cout << table.render("Fig. 6 — Precool mechanism, ECE_EUDC @ 35 C");
  std::cout << "\nMPC trace written to fig6_precool.csv.\n"
            << "Paper's shape: our controller shifts HVAC power away from "
               "motor peaks\n(negative correlation); reactive baselines "
               "show no such coupling.\n";
}

void print_fig7(const std::vector<const Cell*>& cycles) {
  TextTable table({"drive profile", std::string(bench::kOnOff) + " [%]",
                   std::string(bench::kFuzzy) + " [%]",
                   std::string(bench::kOurs) + " [%]",
                   "ours vs On/Off [% better]"});
  double improvement_acc = 0.0;
  for (const Cell* c : cycles) {
    const double base = c->runs[kOnOffRun].metrics.delta_soh_percent;
    const double ours_ratio =
        100.0 * c->runs[kMpcRun].metrics.delta_soh_percent / base;
    table.add_row(
        {drive::cycle_name(c->cycle), "100.0",
         TextTable::num(
             100.0 * c->runs[kFuzzyRun].metrics.delta_soh_percent / base, 1),
         TextTable::num(ours_ratio, 1), TextTable::num(100.0 - ours_ratio, 1)});
    improvement_acc += 100.0 - ours_ratio;
  }
  std::cout << table.render(
      "Fig. 7 — SoH degradation relative to On/Off (35 C ambient)");
  std::cout << "\nAverage dSoH improvement of our methodology vs On/Off: "
            << TextTable::num(improvement_acc / cycles.size(), 1)
            << "% (paper: ~14% average vs state-of-the-art)\n";
}

void print_fig8(const std::vector<const Cell*>& cycles) {
  TextTable table({"drive profile", std::string(bench::kOnOff) + " [kW]",
                   std::string(bench::kFuzzy) + " [kW]",
                   std::string(bench::kOurs) + " [kW]"});
  double vs_onoff_acc = 0.0, vs_fuzzy_acc = 0.0;
  for (const Cell* c : cycles) {
    const double onoff = c->runs[kOnOffRun].metrics.avg_hvac_power_w;
    const double fuzzy = c->runs[kFuzzyRun].metrics.avg_hvac_power_w;
    const double mpc = c->runs[kMpcRun].metrics.avg_hvac_power_w;
    table.add_row({drive::cycle_name(c->cycle),
                   TextTable::num(onoff / 1000.0, 2),
                   TextTable::num(fuzzy / 1000.0, 2),
                   TextTable::num(mpc / 1000.0, 2)});
    vs_onoff_acc += core::improvement_percent(onoff, mpc);
    vs_fuzzy_acc += core::improvement_percent(fuzzy, mpc);
  }
  std::cout << table.render(
      "Fig. 8 — Average HVAC power by drive profile (35 C ambient)");
  const double n = static_cast<double>(cycles.size());
  std::cout << "\nOurs vs On/Off: " << TextTable::num(vs_onoff_acc / n, 1)
            << "% lower on average (paper: ~39%)\nOurs vs fuzzy:  "
            << TextTable::num(vs_fuzzy_acc / n, 1)
            << "% lower on average (paper: ~6%)\n";
}

void print_table1(const std::vector<const Cell*>& ambients) {
  TextTable table({"ambient [C]", std::string(bench::kOnOff) + " [kW]",
                   std::string(bench::kFuzzy) + " [kW]",
                   std::string(bench::kOurs) + " [kW]",
                   "dSoH impr vs On/Off [%]", "dSoH impr vs Fuzzy [%]"});
  for (const Cell* c : ambients) {
    const auto& onoff = c->runs[kOnOffRun].metrics;
    const auto& fuzzy = c->runs[kFuzzyRun].metrics;
    const auto& mpc = c->runs[kMpcRun].metrics;
    table.add_row(
        {TextTable::num(c->ambient_c, 0),
         TextTable::num(onoff.avg_hvac_power_w / 1000.0, 2),
         TextTable::num(fuzzy.avg_hvac_power_w / 1000.0, 2),
         TextTable::num(mpc.avg_hvac_power_w / 1000.0, 2),
         TextTable::num(core::improvement_percent(onoff.delta_soh_percent,
                                                  mpc.delta_soh_percent),
                        2),
         TextTable::num(core::improvement_percent(fuzzy.delta_soh_percent,
                                                  mpc.delta_soh_percent),
                        2)});
  }
  std::cout << table.render(
      "Table I — HVAC power and dSoH improvement vs ambient (ECE_EUDC)");
  std::cout << "\nPaper's shape: conditioning load (and our advantage) "
               "grows toward both\ntemperature extremes; the largest dSoH "
               "improvement is at 0 C.\n";
}

std::string to_json(const std::vector<Cell>& cells) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("evclimate-paper-v1");
  json.key("cells").begin_array();
  for (const Cell& c : cells) {
    json.begin_object();
    json.key("cycle").value(drive::cycle_name(c.cycle));
    json.key("ambient_c").value(c.ambient_c);
    json.key("controllers").begin_object();
    for (std::size_t k = 0; k < c.runs.size(); ++k) {
      const ControllerRun& r = c.runs[k];
      json.key(kJsonNames[k]).begin_object();
      json.key("delta_soh_percent").value(r.metrics.delta_soh_percent);
      json.key("avg_hvac_power_w").value(r.metrics.avg_hvac_power_w);
      json.key("fraction_outside").value(r.metrics.comfort.fraction_outside);
      json.key("max_abs_error_c").value(r.metrics.comfort.max_abs_error_c);
      json.key("rms_error_c").value(r.metrics.comfort.rms_error_c);
      json.key("corr_motor_hvac").value(r.corr_motor_hvac);
      json.key("corr_motor_dtz").value(r.corr_motor_dtz);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  std::string out_path = "PAPER_results.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  // The five profiles at 35 C, then ECE_EUDC at Table I's other ambients.
  std::vector<std::pair<drive::StandardCycle, double>> specs;
  for (const auto cycle : drive::all_standard_cycles())
    specs.emplace_back(cycle, bench::kDefaultAmbientC);
  for (const double ambient : kTable1Ambients)
    if (ambient != bench::kDefaultAmbientC)
      specs.emplace_back(drive::StandardCycle::kEceEudc, ambient);

  std::cerr << "  running " << specs.size() << " cells on "
            << (rt::ThreadPool::global().size() + 1) << " thread(s)...\n";
  const auto cells = rt::parallel_map<Cell>(specs.size(), [&](std::size_t i) {
    return run_cell(specs[i].first, specs[i].second);
  });
  const auto find = [&](drive::StandardCycle cycle, double ambient_c) {
    for (const Cell& c : cells)
      if (c.cycle == cycle && c.ambient_c == ambient_c) return &c;
    return static_cast<const Cell*>(nullptr);
  };

  std::vector<const Cell*> cycles, ambients;
  for (const auto cycle : drive::all_standard_cycles())
    cycles.push_back(find(cycle, bench::kDefaultAmbientC));
  for (const double ambient : kTable1Ambients)
    ambients.push_back(find(drive::StandardCycle::kEceEudc, ambient));
  const Cell& fig6 =
      *find(drive::StandardCycle::kEceEudc, bench::kDefaultAmbientC);

  fig6.precool.write_csv("fig6_precool.csv");
  print_fig6(fig6);
  print_fig7(cycles);
  print_fig8(cycles);
  print_table1(ambients);

  std::ofstream out(out_path);
  out << to_json(cells) << "\n";
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  return 0;
}
