#include "optim/sqp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "numerics/kernels.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "util/expect.hpp"

namespace evc::opt {

std::string to_string(SqpStatus status) {
  switch (status) {
    case SqpStatus::kConverged:
      return "converged";
    case SqpStatus::kMaxIterations:
      return "max-iterations";
    case SqpStatus::kTimeout:
      return "timeout";
    case SqpStatus::kQpFailure:
      return "qp-failure";
  }
  return "unknown";
}

SolveStatus solve_status(SqpStatus status) {
  switch (status) {
    case SqpStatus::kConverged:
      return SolveStatus::kConverged;
    case SqpStatus::kMaxIterations:
      return SolveStatus::kMaxIterations;
    case SqpStatus::kTimeout:
      return SolveStatus::kTimeout;
    case SqpStatus::kQpFailure:
      return SolveStatus::kNumericalFailure;
  }
  return SolveStatus::kNumericalFailure;
}

namespace {

/// Initial ℓ1 merit penalty ν; each iteration raises it above the QP
/// multipliers.
constexpr double kInitialPenalty = 10.0;
/// Step halvings the backtracking line search tries before giving up.
constexpr std::size_t kMaxLineSearchSteps = 25;

// Everything the ℓ1 merit function φ(x) = f(x) + ν·viol(x) needs at a
// point, evaluated once and cached: when a line-search candidate is
// accepted, its evaluation *is* the next iteration's φ0 — the penalty ν may
// change between iterations, so the components are stored instead of φ
// itself. The equality values double as the QP subproblem's −e_vec.
struct MeritEval {
  double f = 0.0;
  num::Vector c;  ///< equality constraint values
  double eq_l1 = 0.0;
  double eq_inf = 0.0;
  double ineq_l1 = 0.0;
  double ineq_inf = 0.0;

  double viol_l1() const { return eq_l1 + ineq_l1; }
  double viol_inf() const { return std::max(eq_inf, ineq_inf); }
  double phi(double nu) const { return f + nu * viol_l1(); }
};

// A·x comes from A's nonzeros (`a_rows`), each row summed in ascending
// column order. The MPC's inequality rows are bounds and two-variable
// couplings with ±1 entries, so this is also the dense kernel's bits.
MeritEval evaluate_merit(const NlpProblem& problem,
                         const num::SparseRows& a_rows,
                         const num::Vector& b_vec, const num::Vector& x,
                         num::Vector& ax_scratch) {
  MeritEval m;
  m.f = problem.cost(x);
  m.c = problem.eq_constraints(x);
  m.eq_l1 = m.c.norm1();
  m.eq_inf = m.c.norm_inf();
  if (!b_vec.empty()) {
    a_rows.times(x, ax_scratch);
    for (std::size_t i = 0; i < b_vec.size(); ++i) {
      const double v = ax_scratch[i] - b_vec[i];
      if (v > 0.0) {
        m.ineq_l1 += v;
        m.ineq_inf = std::max(m.ineq_inf, v);
      }
    }
  }
  return m;
}

// Least-norm feasibility restoration for the second-order correction:
// solve J·Jᵀ·λ = −c and set p = Jᵀ·λ, the minimum-norm step with
// J·p = −c. Returns false when J·Jᵀ is numerically singular (redundant or
// rank-deficient linearization) or the correction is non-finite — the
// caller then falls back to plain backtracking. J has a handful of
// nonzeros per row, so both products walk each row's nonzeros (`j`, the
// iteration's view of J) only: entry (i, k) of J·Jᵀ merges rows i and k and
// adds the shared-column products in ascending column order, the order of
// the dense sum minus its exact-zero terms, so the bits match the dense
// product.
bool solve_least_norm_restoration(const num::SparseRows& j,
                                  const num::Vector& c, SocWorkspace& ws) {
  const std::size_t me = j.rows(), n = j.num_cols;
  const std::vector<std::size_t>& row_ptr = j.row_ptr;
  const std::vector<std::size_t>& cols = j.cols;
  const std::vector<double>& vals = j.vals;

  ws.jjt.resize(me, me);
  for (std::size_t i = 0; i < me; ++i) {
    if (row_ptr[i] == row_ptr[i + 1]) continue;
    for (std::size_t k = i; k < me; ++k) {
      // Rows whose column ranges do not overlap share no column; their
      // entry keeps the +0 that resize() wrote. J is banded, so that is
      // most pairs.
      if (row_ptr[k] == row_ptr[k + 1] ||
          cols[row_ptr[k]] > cols[row_ptr[i + 1] - 1] ||
          cols[row_ptr[k + 1] - 1] < cols[row_ptr[i]])
        continue;
      double acc = 0.0;
      std::size_t a = row_ptr[i], b = row_ptr[k];
      while (a < row_ptr[i + 1] && b < row_ptr[k + 1]) {
        if (cols[a] < cols[b]) {
          ++a;
        } else if (cols[b] < cols[a]) {
          ++b;
        } else {
          acc += vals[a++] * vals[b++];
        }
      }
      ws.jjt(i, k) = acc;
      ws.jjt(k, i) = acc;
    }
  }
  if (!ws.lu.factorize(ws.jjt)) return false;
  ws.rhs.resize(me);
  for (std::size_t i = 0; i < me; ++i) ws.rhs[i] = -c[i];
  ws.lu.solve_into(ws.rhs, ws.lambda);
  ws.p.assign(n, 0.0);
  for (std::size_t i = 0; i < me; ++i)
    for (std::size_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t)
      ws.p[cols[t]] += ws.lambda[i] * vals[t];
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(ws.p[i])) return false;
  return true;
}

}  // namespace

SqpResult SqpSolver::solve(const NlpProblem& problem, const num::Vector& x0,
                           const std::vector<std::size_t>* warm_active) const {
  const std::size_t n = problem.num_vars();
  EVC_EXPECT(x0.size() == n, "SQP initial point dimension mismatch");
  const num::Matrix& a_mat = problem.ineq_matrix();
  const num::Vector& b_vec = problem.ineq_vector();

  EVC_TRACE_SPAN_VAR(sqp_span, "sqp.solve");
  SqpResult result;
  result.x = x0;
  double nu = kInitialPenalty;

  const CondensingPlan* plan = problem.condensing_plan();
  EVC_EXPECT(plan != nullptr, "SQP problem offers no condensing plan");

  // The cost Hessian and the inequality system are fixed across
  // iterations: regularize and copy them into the reused QP subproblem, and
  // gather their nonzeros, once per solve.
  qp_.h = problem.cost_hessian(x0);
  for (std::size_t i = 0; i < n; ++i)
    qp_.h(i, i) += options_.hessian_regularization;
  nz_.h.assign(qp_.h);
  qp_.a_mat.copy_from(a_mat);
  nz_.a.assign(a_mat);

  // Working-set seed for the first QP subproblem (receding-horizon warm
  // start); each later subproblem is seeded with its predecessor's final
  // working set, kept in result.active_ineq.
  const std::vector<std::size_t>* qp_seed = warm_active;

  MeritEval cur = evaluate_merit(problem, nz_.a, b_vec, result.x, ax_);

  const rt::Deadline deadline =
      rt::Deadline::from_budget_s(options_.time_budget_s);

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Deadline watchdog: give up between iterations (the iterate is always
    // coherent there) and report kTimeout so the caller can degrade instead
    // of silently trusting a half-optimized plan.
    if (iter > 0 && deadline.active() && deadline.remaining_s() <= 0.0) {
      result.status = SqpStatus::kTimeout;
      break;
    }
    result.iterations = iter + 1;
    const num::Vector grad = problem.cost_gradient(result.x);

    // QP subproblem in the step d:
    //   min ½dᵀHd + ∇fᵀd   s.t.  J·d = −c,  A·d ≤ b − A·x.
    // J is the only matrix that changes: gather its nonzeros once, for the
    // condensing and the second-order correction alike.
    qp_.g = grad;
    qp_.e_mat = problem.eq_jacobian(result.x);
    nz_.e.assign(qp_.e_mat);
    qp_.e_vec.resize(cur.c.size());
    for (std::size_t i = 0; i < cur.c.size(); ++i) qp_.e_vec[i] = -cur.c[i];
    qp_.b_vec.assign(b_vec.size(), 0.0);
    nz_.a.gemv(-1.0, a_mat, result.x.ptr(), qp_.b_vec.ptr());
    qp_.b_vec += b_vec;

    // An unusable or non-finite subproblem solution ends the solve: no
    // step is taken that no QP solved.
    const QpResult qp_result =
        condensed_.solve(qp_, nz_, *plan, qp_counters_, qp_seed);
    bool finite = qp_result.usable();
    for (std::size_t i = 0; finite && i < n; ++i)
      finite = std::isfinite(qp_result.x[i]);
    if (!finite) {
      result.status = SqpStatus::kQpFailure;
      break;
    }
    result.qp_iterations_total += qp_result.iterations;
    const num::Vector& d = qp_result.x;

    // Carry the working set into the final result; it also seeds the next
    // subproblem.
    result.active_ineq = qp_result.active_ineq;
    qp_seed = &result.active_ineq;

    if (d.norm_inf() <= options_.step_tolerance &&
        cur.eq_inf <= options_.constraint_tolerance &&
        cur.ineq_inf <= options_.constraint_tolerance) {
      result.status = SqpStatus::kConverged;
      break;
    }

    // Keep the ℓ1 penalty above the multipliers so the merit function is
    // exact (descent along the QP step is guaranteed).
    double mult_inf = 0.0;
    if (!qp_result.y_eq.empty())
      mult_inf = std::max(mult_inf, qp_result.y_eq.norm_inf());
    if (!qp_result.z_ineq.empty())
      mult_inf = std::max(mult_inf, qp_result.z_ineq.norm_inf());
    nu = std::max(nu, 2.0 * mult_inf + 1.0);

    const double phi0 = cur.phi(nu);
    const double viol0 = cur.viol_l1();
    // Directional derivative of the merit along d (upper bound).
    const double descent = grad.dot(d) - nu * viol0;

    double t = 1.0;
    bool stepped = false;
    MeritEval cand;
    {
      EVC_TRACE_SPAN("sqp.line_search");
      for (std::size_t ls = 0; ls < kMaxLineSearchSteps; ++ls) {
        num::copy_into(result.x, candidate_);
        candidate_.add_scaled(t, d);
        cand = evaluate_merit(problem, nz_.a, b_vec, candidate_, ax_);
        bool accepted =
            cand.phi(nu) <= phi0 + 1e-4 * t * std::min(descent, 0.0);
        // Maratos guard (see docs/SEED_FAILURES.md): on a curved constraint
        // manifold the full step carries a second-order feasibility error,
        // c(x+d) = O(‖d‖²). The ℓ1 merit then either rejects an excellent
        // step outright (the classic Maratos stall) or accepts a sequence
        // of steps that zigzag across the manifold without ever shrinking
        // the violation. Both show up as the unit step failing to reduce
        // infeasibility — so whenever that happens, restore feasibility
        // with the least-norm correction p = Jᵀ·(J·Jᵀ)⁻¹·(−c(x+d)) and
        // offer x + d + p to the same acceptance test. cand.c already
        // holds c(x+d).
        if (ls == 0 && options_.second_order_correction && !cand.c.empty() &&
            (!accepted ||
             cand.eq_l1 > std::max(0.5 * cur.eq_l1,
                                   options_.constraint_tolerance))) {
          ++result.soc_tried;
          if (solve_least_norm_restoration(nz_.e, cand.c, soc_)) {
            num::copy_into(candidate_, soc_candidate_);
            soc_candidate_.add_scaled(1.0, soc_.p);
            MeritEval cand_soc =
                evaluate_merit(problem, nz_.a, b_vec, soc_candidate_, ax_);
            if (cand_soc.phi(nu) <= phi0 + 1e-4 * std::min(descent, 0.0) &&
                (!accepted || cand_soc.phi(nu) < cand.phi(nu))) {
              num::copy_into(soc_candidate_, candidate_);
              cand = std::move(cand_soc);
              accepted = true;
              ++result.soc_steps;
            }
          }
        }
        if (accepted) {
          stepped = true;
          break;
        }
        t *= 0.5;
      }
    }
    if (!stepped) {
      // The merit cannot be decreased along this direction: accept
      // convergence at a feasible iterate or report max-iterations.
      result.status = (cur.eq_inf <= options_.constraint_tolerance &&
                       cur.ineq_inf <= options_.constraint_tolerance)
                          ? SqpStatus::kConverged
                          : SqpStatus::kMaxIterations;
      break;
    }
    // Merit stagnation at a feasible iterate: converged for all practical
    // purposes — don't burn the remaining iterations. When the *pre-step*
    // iterate is itself feasible, converge there and discard the step: it
    // bought no merit, and keeping the iterate bit-identical makes a
    // steady-state replan a true fixed point — the next solve linearizes at
    // the same point instead of chasing a microscopic creep.
    const double phi_new = cand.phi(nu);
    if (phi0 - phi_new <= 1e-7 * (1.0 + std::abs(phi_new)) &&
        cand.eq_inf <= options_.constraint_tolerance &&
        cand.ineq_inf <= options_.constraint_tolerance) {
      if (!(cur.eq_inf <= options_.constraint_tolerance &&
            cur.ineq_inf <= options_.constraint_tolerance)) {
        result.x = candidate_;
        cur = std::move(cand);
      }
      result.status = SqpStatus::kConverged;
      break;
    }
    result.x = candidate_;
    // The accepted candidate's evaluation becomes the next iteration's φ0 —
    // no re-evaluation of cost/constraints at the same point.
    cur = std::move(cand);
    result.status = SqpStatus::kMaxIterations;  // until proven converged
  }

  sqp_span.arg("iterations", static_cast<double>(result.iterations));
  sqp_span.arg("status", static_cast<double>(result.status));
  sqp_span.arg("soc_tried", static_cast<double>(result.soc_tried));
  sqp_span.arg("soc_steps", static_cast<double>(result.soc_steps));
  result.cost = cur.f;
  result.constraint_violation = cur.viol_inf();
  return result;
}

}  // namespace evc::opt
