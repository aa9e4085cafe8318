// Sequential Quadratic Programming for the MPC's bilinear program.
//
// Per iteration: linearize the equalities around the iterate, solve the
// convex QP subproblem (exact cost Hessian + regularization), then globalize
// with a backtracking line search on the ℓ1 merit function
//     φ(x) = f(x) + ν·‖c(x)‖₁ + ν·‖(A x − b)₊‖₁.
// The paper prescribes exactly this solver family for the HVAC MPC
// (Kelman & Borrelli, IFAC'11 — bilinear HVAC MPC via SQP).
//
// Every subproblem is solved by the condensed dense active set
// (optim/condensed_qp) along the problem's CondensingPlan, which every
// NlpProblem must provide. A subproblem it cannot solve — infeasible, a
// breakdown, or the active set's step cap — ends the solve with kQpFailure,
// so the caller never applies a step no QP solved.
//
// Hot-path behaviour: the solver owns a persistent condensed solver and a
// reused QP subproblem, so consecutive iterations (and consecutive solves
// on a receding horizon) share storage, and each iteration pays only for
// what changed. The cost Hessian is read and regularized, and the
// nonzeros of H and A gathered, once per solve — or once for as long as
// the problem returns the same fixed-structure handle
// (NlpProblem::fixed_structure) — and those of J once per iteration
// (QpNonzeros), into a Jacobian the solver owns: the condensing, b − A·x,
// the merit's A·x and the second-order correction's J·Jᵀ all walk them,
// with the dense kernels' bits. Each subproblem's final working set seeds the next one,
// and the solve returns the last one, so the caller can carry it into the
// next receding-horizon solve. The merit value of an
// accepted line-search candidate is cached so the next iteration does not
// re-evaluate cost/constraints at the same point.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "optim/condensed_qp.hpp"
#include "optim/nlp.hpp"
#include "optim/qp.hpp"
#include "optim/solve_status.hpp"

namespace evc::opt {

enum class SqpStatus {
  kConverged,       ///< step and constraint violation below tolerance
  kMaxIterations,   ///< best iterate returned
  kTimeout,         ///< wall-clock budget exhausted; best iterate returned
  kQpFailure,       ///< a QP subproblem had no usable, finite solution
};

/// Coarse classification for control-layer callers (see solve_status.hpp).
SolveStatus solve_status(SqpStatus status);

struct SqpOptions {
  std::size_t max_iterations = 30;
  double step_tolerance = 1e-6;        ///< ‖d‖∞ for convergence
  double constraint_tolerance = 1e-6;  ///< ‖c(x)‖∞ for convergence
  /// Wall-clock budget for one solve (s); 0 disables the deadline. Checked
  /// before every SQP iteration after the first; on expiry the best iterate
  /// so far is returned with status kTimeout.
  double time_budget_s = 0.0;
  double hessian_regularization = 1e-8;
  /// Second-order correction against the Maratos effect: when the full QP
  /// step is rejected by the merit test — or accepted without shrinking the
  /// equality violation, the zigzag variant of the same pathology — solve
  /// J·Jᵀ·λ = −c(x+d) for the least-norm feasibility restoration p = Jᵀ·λ
  /// and offer x + d + p to the same acceptance test before backtracking.
  /// Near a curved constraint manifold the full step trades a large cost
  /// improvement for a quadratic feasibility loss; the correction removes
  /// that loss so the unit step — and with it fast local convergence —
  /// survives.
  bool second_order_correction = true;
  /// QP engine for the subproblems: always the condensed dense active set.
  /// Not settable; benchmark artifacts record its name.
  static constexpr QpBackend backend = QpBackend::kCondensed;
};

struct SqpResult {
  SqpStatus status = SqpStatus::kQpFailure;
  num::Vector x;
  /// Final QP working set (ascending): the inequality rows the last solved
  /// subproblem held active, the seed to carry into the next
  /// receding-horizon solve. Empty when no subproblem was solved.
  std::vector<std::size_t> active_ineq;
  double cost = 0.0;
  double constraint_violation = 0.0;  ///< ‖c(x)‖∞ at the final iterate
  std::size_t iterations = 0;
  std::size_t qp_iterations_total = 0;
  /// Line searches that tried a second-order correction, and those it
  /// rescued (the corrected point was accepted).
  std::size_t soc_tried = 0;
  std::size_t soc_steps = 0;

  bool usable() const { return status != SqpStatus::kQpFailure; }
};

/// Reused buffers of the second-order correction: J·Jᵀ and its
/// factorization, the restoration multipliers λ, and the correction step
/// p = Jᵀ·λ. J's nonzeros are the iteration's view, gathered once for the
/// condensing and this correction alike.
struct SocWorkspace {
  num::Matrix jjt;
  num::LuFactorization lu;
  num::Vector rhs, lambda, p;
};

class SqpSolver {
 public:
  explicit SqpSolver(SqpOptions options = {}) : options_(options) {}

  /// Solve `problem` starting from `x0` (size num_vars()). `x0` need not be
  /// feasible. `warm_active`, when not null, seeds the first QP
  /// subproblem's working set — typically the previous receding-horizon
  /// solve's active_ineq; rows outside the problem are skipped.
  ///
  /// Logically const but reuses an internal workspace: concurrent solve()
  /// calls on the *same* SqpSolver instance are not allowed (one solver per
  /// thread/controller).
  SqpResult solve(const NlpProblem& problem, const num::Vector& x0,
                  const std::vector<std::size_t>* warm_active = nullptr) const;

  /// Perf counters aggregated over every QP subproblem this solver solved.
  const QpPerfCounters& qp_counters() const { return qp_counters_; }
  void reset_qp_counters() const { qp_counters_ = QpPerfCounters{}; }
  /// Checkpoint-restore path: reinstate aggregate counters saved from a
  /// previous solver instance.
  void restore_qp_counters(const QpPerfCounters& counters) const {
    qp_counters_ = counters;
  }
  /// Bytes held by the persistent QP workspace (capacity, not size).
  std::size_t workspace_bytes() const { return condensed_.bytes(); }

 private:
  SqpOptions options_;
  // Persistent hot-path storage (see class comment): reused across
  // iterations and across solves.
  mutable QpPerfCounters qp_counters_;
  mutable CondensedQpSolver condensed_;
  mutable QpProblem qp_;
  mutable num::Vector candidate_;
  /// Nonzeros of H and A (when the structure handle changes) and J (once
  /// per iteration).
  mutable QpNonzeros nz_;
  /// The structure qp_.h, qp_.a_mat, nz_.h and nz_.a were built from;
  /// null when they must be rebuilt.
  mutable FixedStructureHandle structure_;
  mutable num::Vector ax_;
  mutable SocWorkspace soc_;
  mutable num::Vector soc_candidate_;
};

std::string to_string(SqpStatus status);

}  // namespace evc::opt
