// Dense convex quadratic programs and the result type of their solver.
//
//   minimize    ½ xᵀH x + gᵀx
//   subject to  E x = e          (equalities)
//               A x ≤ b          (inequalities)
//
// The SQP layer poses one such subproblem per iteration. It has one solver:
// the condensed dense active set (optim/condensed_qp), which eliminates the
// equalities along the problem's CondensingPlan and solves the small
// inequality-constrained remainder with the dual active set of
// optim/dense_active_set. A subproblem that solver cannot solve is reported
// as such (QpResult::usable() false), and the SQP stops with kQpFailure so
// the supervisor demotes to a simpler tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::opt {

struct QpProblem {
  num::Matrix h;  ///< n×n, symmetric positive semidefinite
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
  kMaxIterations,   ///< dual-step cap reached before primal feasibility
  kNumericalIssue,  ///< structural or numerical breakdown; no usable point
};

struct QpResult {
  QpStatus status = QpStatus::kNumericalIssue;
  num::Vector x;          ///< primal solution
  num::Vector y_eq;       ///< equality multipliers
  num::Vector z_ineq;     ///< inequality multipliers (≥ 0)
  double objective = 0.0;
  std::size_t iterations = 0;
  double kkt_residual = 0.0;  ///< max primal violation / dual negativity
  /// Final working set: the inequality rows held active at the optimum,
  /// ascending — the seed for the next subproblem in a sequence.
  std::vector<std::size_t> active_ineq;

  bool usable() const { return status == QpStatus::kSolved; }
};

/// Perf counters accumulated across every subproblem an SqpSolver solves.
/// The solver keeps no state across solves: every subproblem it condenses
/// counts once in factorizations (it factors the reduced Hessian), every
/// one it solves once in solves, and a solve seeded with a previous working
/// set also counts in warm_starts.
struct QpPerfCounters {
  std::size_t solves = 0;              ///< subproblems solved
  std::size_t factorizations = 0;      ///< subproblems condensed and factored
  /// Always 0: nothing factors a full KKT matrix. Kept because perfbench
  /// reports it as optim.dense_fallbacks.
  std::size_t dense_fallbacks = 0;
  std::size_t warm_starts = 0;         ///< solves seeded from a working set
  /// Always 0: the condensed solver's scratch is not tracked per solve.
  /// Kept because perfbench reports it as optim.workspace_growths.
  std::size_t workspace_growths = 0;
  std::size_t peak_workspace_bytes = 0;
  std::size_t active_set_changes = 0;  ///< working-set adds+drops, all solves
  // Wall-time attribution, so the MPC layer can report where its solve
  // budget went.
  std::uint64_t solve_time_ns = 0;      ///< total wall time inside solves
  std::uint64_t factorize_time_ns = 0;  ///< wall time condensing + factoring

  QpPerfCounters& operator+=(const QpPerfCounters& rhs);
};

}  // namespace evc::opt
