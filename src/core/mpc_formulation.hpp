// MPC optimal-control formulation (paper §III-A, Eq. 18–21).
//
// Decision vector over an N-step control window with step Δt:
//   x_k            cabin temperature Tz, k = 0..N          (N+1)
//   i_k = [Ts, Tc, dr, mz]                k = 0..N−1       (4N)
//   u_k = [Tm, Ph, Pc, Pf]  (powers in kW) k = 0..N−1      (4N)
//   SoC_k          battery state of charge, k = 0..N       (N+1)
//   s_k            comfort-zone slack for x_{k+1}, k = 0..N−1  (N)
//
// The comfort zone C2 is imposed *softly* (x within [min−s, max+s], s ≥ 0,
// linear penalty): with hard bounds the window is infeasible whenever the
// cabin starts outside the zone (heat-soaked car, extreme ambient at the
// plant's power limits), and a receding-horizon controller must degrade
// gracefully there, not fail.
//
// Nonlinear (bilinear) equalities: trapezoidal cabin dynamics (Eq. 18–19),
// air mixer (Eq. 9), heater/cooler coil power (Eq. 10–11), fan law
// (Eq. 12), a linearized battery charge balance, and the two initial
// conditions. Linear inequalities encode C1–C10 plus the comfort zone.
//
// Cost (Eq. 21): Σ w1·(Pf+Pc+Ph) + w2·(SoC_k − mean(SoC))² +
// w3·(Tz_k − Ttarget)². The SoC-deviation term uses the window's own mean
// (a PSD quadratic via the centering matrix) — the paper's SoCavg is the
// cycle average, unavailable in closed form inside the window; minimizing
// the window's variance is the same pressure: it flattens the SoC
// trajectory by shifting HVAC load away from motor-power peaks.
//
// Electrical power inside the window is modeled linearly in SoC
// (SoC_{k+1} = SoC_k − κ·P_total·Δt). The physical plant still applies the
// full Peukert/IR model; the controller's model error is handled by the
// receding horizon, exactly as in the paper (SQP on a bilinear model of a
// richer AMESim plant).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "battery/battery_params.hpp"
#include "hvac/hvac_params.hpp"
#include "optim/condensed_qp.hpp"
#include "optim/nlp.hpp"

namespace evc::core {

/// Variable packing for the control window.
class MpcIndex {
 public:
  explicit MpcIndex(std::size_t horizon);

  std::size_t horizon() const { return n_; }
  std::size_t num_vars() const { return 11 * n_ + 2; }
  std::size_t num_eq() const { return 6 * n_ + 2; }
  std::size_t num_ineq() const { return 16 * n_; }

  // k ranges: states 0..N, inputs/auxiliaries 0..N−1.
  std::size_t x(std::size_t k) const;
  std::size_t ts(std::size_t k) const;
  std::size_t tc(std::size_t k) const;
  std::size_t dr(std::size_t k) const;
  std::size_t mz(std::size_t k) const;
  std::size_t tm(std::size_t k) const;
  std::size_t ph(std::size_t k) const;
  std::size_t pc(std::size_t k) const;
  std::size_t pf(std::size_t k) const;
  std::size_t soc(std::size_t k) const;
  /// Comfort slack for predicted state x_{k+1}, k = 0..N−1.
  std::size_t slack(std::size_t k) const;

 private:
  std::size_t n_;
};

struct MpcWeights {
  double power = 0.02;        ///< w1, per kW per step
  double soc_deviation = 2.0; ///< w2, per %² per step
  double comfort = 0.3;       ///< w3, per K² per step
  /// Linear penalty per K of comfort-zone violation per step; large enough
  /// that slack is only used when the zone is physically unreachable.
  double comfort_slack = 50.0;
};

/// Per-window boundary data.
struct MpcWindowData {
  double dt_s = 5.0;
  double initial_cabin_temp_c = 24.0;
  double initial_soc_percent = 90.0;
  /// Forecast over the window, size = horizon: motor+accessory electrical
  /// power (kW) and ambient temperature (°C).
  std::vector<double> fixed_power_kw;
  std::vector<double> outside_temp_c;
  /// When set, the w2 term becomes the paper's literal (SoC − SoCavg)²
  /// with this cycle-average reference (percent) — typically the
  /// TripPlanner's predicted cycle average. When unset, the window's own
  /// mean is used (variance form).
  std::optional<double> soc_reference;
  /// Battery model inside the window: false (default) uses the linear
  /// charge balance SoC⁺ = SoC − κ·P·Δt; true applies the smoothed
  /// Peukert rate-capacity correction g(P) = P·(√(P²+δ²)/Pnom)^(pc−1)
  /// so high-power intervals drain super-linearly, as the plant does.
  bool nonlinear_battery = false;
};

class MpcFormulation : public opt::NlpProblem {
 public:
  MpcFormulation(hvac::HvacParams hvac_params,
                 bat::BatteryParams battery_params, MpcWeights weights,
                 MpcWindowData window);

  const MpcIndex& index() const { return idx_; }

  // --- NlpProblem interface ---
  std::size_t num_vars() const override { return idx_.num_vars(); }
  std::size_t num_eq() const override { return idx_.num_eq(); }
  double cost(const num::Vector& z) const override;
  num::Vector cost_gradient(const num::Vector& z) const override;
  num::Matrix cost_hessian(const num::Vector& z) const override;
  num::Vector eq_constraints(const num::Vector& z) const override;
  void eq_jacobian(const num::Vector& z, num::Matrix& j) const override;
  const num::Matrix& ineq_matrix() const override { return a_mat_; }
  const num::Vector& ineq_vector() const override { return b_vec_; }
  /// One handle for the formulation's lifetime: its cost and inequalities
  /// depend only on what set_window() keeps.
  opt::FixedStructureHandle fixed_structure() const override {
    return structure_;
  }
  /// Elimination order for the condensed backend: the dynamics rows solve
  /// for the dependent trajectory (states, mixed-air temperature, powers,
  /// SoC), leaving the 5N true decisions (Ts, Tc, dr, mz, slack) free.
  const opt::CondensingPlan* condensing_plan() const override {
    return &plan_;
  }

  /// A physically consistent starting point: cabin/SoC held at their
  /// initial values, coils idle, minimum flow, all auxiliaries consistent
  /// with the equalities (up to the SoC drift from the fixed load).
  num::Vector cold_start() const;

  /// The boundary data this window was built from (warm-start alignment).
  const MpcWindowData& window() const { return window_; }
  /// Move to the next plan's window: replaces the initial state and the
  /// forecast and keeps everything built from the rest — the cost, the
  /// inequalities, the condensing plan and the structure handle. `window`
  /// must match the current window's step, SoC reference, battery model
  /// and horizon.
  void set_window(MpcWindowData window);

 private:
  void build_cost();
  void build_inequalities();
  /// Smoothed Peukert throughput g(P) (kW) and its derivative at total
  /// power `p_kw` — identity when the window uses the linear model.
  double peukert_g(double p_kw) const;
  double peukert_dg(double p_kw) const;

  hvac::HvacParams hvac_;
  bat::BatteryParams battery_;
  MpcWeights weights_;
  MpcWindowData window_;
  MpcIndex idx_;
  double kappa_ = 0.0;  ///< %SoC per (kW·s)
  double peukert_pnom_kw_ = 8.0;

  num::Matrix hessian_;
  /// hessian_'s nonzeros, for H·z in cost() and cost_gradient(): a few per
  /// row, at most horizon + 1 (the SoC rows of the window-variance form).
  num::SparseRows hessian_rows_;
  num::Vector gradient_const_;
  num::Matrix a_mat_;
  num::Vector b_vec_;
  opt::CondensingPlan plan_;
  opt::FixedStructureHandle structure_ =
      std::make_shared<const opt::FixedStructure>();
};

}  // namespace evc::core
