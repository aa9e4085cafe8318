// Dense convex quadratic programming.
//
//   minimize    ½ xᵀH x + gᵀx
//   subject to  E x = e          (equalities)
//               A x ≤ b          (inequalities)
//
// Solved with a primal-dual interior-point method (Mehrotra
// predictor-corrector). Chosen over active-set because it needs no feasible
// starting point and has no combinatorial cycling — the SQP layer throws
// mildly inconsistent linearizations at it every control step, and
// regularize-and-retry is easier to reason about than active-set repair.
//
// Problem sizes here are MPC-scale (n ≲ 300, a few hundred constraints).
// The per-iteration KKT system is solved by block elimination: Cholesky of
// the SPD barrier-augmented Hessian K = H + AᵀDA plus a Schur complement in
// the equality multipliers (numerics/schur_kkt), falling back to a dense LU
// of the full KKT matrix when K is not numerically positive definite. The
// barrier term AᵀDA is assembled from a compressed-sparse-row view of A —
// MPC inequality rows are bounds and simple couplings with 1–3 nonzeros —
// and only the upper triangle is computed.
//
// All per-iteration storage lives in a QpWorkspace that the caller may own
// and reuse across solves: at steady state (same problem dimensions) the
// interior-point loop performs zero heap allocations. The workspace also
// accumulates perf counters (iterations, factorizations, fallbacks, peak
// bytes) so benches can track the solver's cost envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/schur_kkt.hpp"
#include "numerics/vector.hpp"
#include "optim/solve_status.hpp"

namespace evc::opt {

struct QpProblem {
  num::Matrix h;  ///< n×n, symmetric positive semidefinite (regularized here)
  num::Vector g;  ///< n
  num::Matrix e_mat;  ///< m_e×n equality matrix (may be 0×n)
  num::Vector e_vec;  ///< m_e
  num::Matrix a_mat;  ///< m_i×n inequality matrix (may be 0×n)
  num::Vector b_vec;  ///< m_i

  std::size_t num_vars() const { return g.size(); }
  std::size_t num_eq() const { return e_vec.size(); }
  std::size_t num_ineq() const { return b_vec.size(); }
  /// Throws std::invalid_argument on inconsistent dimensions.
  void validate() const;
};

enum class QpStatus {
  kSolved,
  kMaxIterations,   ///< best iterate returned; residuals not at tolerance
  kTimeout,         ///< wall-clock budget exhausted; best iterate returned
  kNumericalIssue,  ///< KKT factorization failed even after regularization
};

/// Coarse classification for control-layer callers (see solve_status.hpp).
SolveStatus solve_status(QpStatus status);

struct QpResult {
  QpStatus status = QpStatus::kNumericalIssue;
  num::Vector x;          ///< primal solution
  num::Vector y_eq;       ///< equality multipliers
  num::Vector z_ineq;     ///< inequality multipliers (≥ 0)
  double objective = 0.0;
  std::size_t iterations = 0;
  double kkt_residual = 0.0;  ///< max-norm of stationarity+feasibility
  /// Final working set of an active-set solve: the inequality rows held
  /// active at the optimum, ascending. Empty from the interior point, which
  /// keeps no working set.
  std::vector<std::size_t> active_ineq;

  bool usable() const { return status != QpStatus::kNumericalIssue; }
};

struct QpOptions {
  std::size_t max_iterations = 60;
  double tolerance = 1e-8;      ///< residual + complementarity target
  double regularization = 1e-9; ///< added to H's diagonal before solving
  /// Wall-clock budget for one solve (s); 0 disables the deadline. Checked
  /// once per interior-point iteration, so an exhausted budget still returns
  /// the best iterate seen (status kTimeout) rather than aborting mid-step.
  double time_budget_s = 0.0;
};

/// Primal/dual seed, typically the solution of the previous QP in an SQP or
/// receding-horizon sequence. The interior point clamps the multipliers
/// into the interior and re-derives slacks from the primal seed, so a stale
/// or slightly infeasible seed degrades into a cold start rather than a
/// failure; it ignores the working set. The condensed active set seeds its
/// working set from `active_ineq` together with the support of `z_ineq`.
/// Ignored when dimensions do not match the problem.
struct QpWarmStart {
  num::Vector x;       ///< primal seed (size n)
  num::Vector y_eq;    ///< equality multiplier seed (size m_e)
  num::Vector z_ineq;  ///< inequality multiplier seed (size m_i)
  /// Working-set seed: inequality rows, ascending (QpResult::active_ineq).
  std::vector<std::size_t> active_ineq;
  bool empty() const {
    return x.empty() && y_eq.empty() && z_ineq.empty() && active_ineq.empty();
  }
};

/// Perf counters accumulated across every solve that uses a workspace.
struct QpPerfCounters {
  std::size_t solves = 0;
  std::size_t ipm_iterations = 0;
  std::size_t factorizations = 0;      ///< KKT factorizations, any path
  std::size_t schur_solves = 0;        ///< block-elimination factorizations
  std::size_t schur_regularizations = 0;  ///< Schur solves with a shifted S
  std::size_t dense_fallbacks = 0;     ///< full dense KKT LU factorizations
  std::size_t timeouts = 0;            ///< solves that hit their wall budget
  std::size_t warm_starts = 0;         ///< solves seeded from a warm start
  std::size_t workspace_growths = 0;   ///< solves that grew any buffer
  std::size_t peak_workspace_bytes = 0;
  // Condensed-backend counters (optim/condensed_qp). The condensed path
  // keeps no state across solves: every subproblem it condenses counts once
  // in condense_rebuilds and once in factorizations (it factors the reduced
  // Hessian), and a solve seeded with a previous working set also counts in
  // warm_starts.
  std::size_t condensed_solves = 0;    ///< solves taken by the condensed path
  std::size_t condense_rebuilds = 0;   ///< subproblems condensed
  std::size_t active_set_changes = 0;  ///< working-set adds+drops, all solves
  /// Subproblems the condensed path attempted but the SQP layer handed to
  /// the interior point instead (failed or non-finite condensed result).
  std::size_t condensed_fallbacks = 0;
  // Wall-time attribution, so `timeouts` has a matching time axis and the
  // MPC layer can report where its solve budget actually went.
  std::uint64_t solve_time_ns = 0;      ///< total wall time inside solve_qp
  std::uint64_t factorize_time_ns = 0;  ///< wall time inside factorizations
  std::uint64_t timeout_time_ns = 0;    ///< solve time of timed-out solves

  QpPerfCounters& operator+=(const QpPerfCounters& rhs);
};

/// Reusable storage for solve_qp. Create once (per thread/controller), pass
/// to every solve: buffers grow to the largest problem seen and are then
/// reused, making the interior-point loop allocation-free at steady state.
/// Not thread-safe — one workspace per concurrent solver.
class QpWorkspace {
 public:
  QpWorkspace() = default;

  const QpPerfCounters& counters() const { return counters_; }
  /// Mutable counters for sibling solvers that share this workspace's
  /// telemetry stream (the condensed backend books its solves here so the
  /// controller sees one unified set of QP counters).
  QpPerfCounters& counters_mut() { return counters_; }
  void reset_counters() { counters_ = QpPerfCounters{}; }
  /// Overwrite the counters wholesale — used by checkpoint restore so a
  /// resumed controller reports the same aggregate solver telemetry as an
  /// uninterrupted run.
  void restore_counters(const QpPerfCounters& counters) {
    counters_ = counters;
  }

  /// Bytes currently held across all buffers (capacity, not size).
  std::size_t bytes() const;

 private:
  friend QpResult solve_qp(const QpProblem&, const QpOptions&, QpWorkspace&,
                           const QpWarmStart*);

  QpPerfCounters counters_;

  num::SparseRows a_rows_;  ///< nonzeros of the inequality matrix A

  num::Matrix h_reg_;  ///< symmetrized + regularized Hessian
  num::Matrix k_mat_;  ///< H + AᵀDA (barrier-augmented Hessian)
  num::Matrix kkt_;    ///< dense (n+me) KKT matrix (fallback path)
  num::SchurKktSolver schur_;
  num::LuFactorization lu_;

  num::Vector x_, y_, z_, s_;
  num::Vector best_x_, best_y_, best_z_;
  num::Vector r_dual_, r_eq_, r_eq_neg_, r_ineq_;
  num::Vector tmp_mi_, rhs1_, rhs_, sol_, hx_;
  num::Vector dx_aff_, dy_aff_, ds_aff_, dz_aff_;
  num::Vector dx_, dy_, ds_, dz_, rc_;
};

/// Solve a dense convex QP. H is symmetrized internally. The overload
/// without a workspace allocates a fresh one per call (setup code); hot
/// paths should own a QpWorkspace and pass it in, optionally with a warm
/// start from the previous solve in the sequence.
QpResult solve_qp(const QpProblem& problem, const QpOptions& options = {});
QpResult solve_qp(const QpProblem& problem, const QpOptions& options,
                  QpWorkspace& workspace,
                  const QpWarmStart* warm_start = nullptr);

std::string to_string(QpStatus status);

}  // namespace evc::opt
