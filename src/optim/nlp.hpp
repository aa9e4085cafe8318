// Nonlinear program interface consumed by the SQP solver.
//
//   minimize    f(x)            (smooth with a constant Hessian — the MPC
//                                cost is quadratic)
//   subject to  c(x) = 0        (smooth nonlinear equalities; the MPC
//                                dynamics are bilinear)
//               A x ≤ b         (linear inequalities: actuator bounds,
//                                comfort zone, power limits C1–C10)
#pragma once

#include <cstddef>

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::opt {

struct CondensingPlan;

class NlpProblem {
 public:
  virtual ~NlpProblem() = default;

  virtual std::size_t num_vars() const = 0;
  virtual std::size_t num_eq() const = 0;

  virtual double cost(const num::Vector& x) const = 0;
  virtual num::Vector cost_gradient(const num::Vector& x) const = 0;
  /// Hessian of the cost. Must be symmetric and the same at every x: the
  /// SQP solver reads it once per solve, at the initial point. It adds
  /// regularization as needed, so positive semidefinite is sufficient.
  virtual num::Matrix cost_hessian(const num::Vector& x) const = 0;

  /// Equality constraint values c(x) (size num_eq()).
  virtual num::Vector eq_constraints(const num::Vector& x) const = 0;
  /// Jacobian ∂c/∂x (num_eq() × num_vars()).
  virtual num::Matrix eq_jacobian(const num::Vector& x) const = 0;

  /// Fixed linear inequalities A x ≤ b. May have zero rows.
  virtual const num::Matrix& ineq_matrix() const = 0;
  virtual const num::Vector& ineq_vector() const = 0;

  /// Elimination order for the condensed QP backend (optim/condensed_qp),
  /// or nullptr when the problem does not offer one (the solver then stays
  /// on the sparse path regardless of the requested backend). The plan must
  /// be finalized and valid for every linearization this problem produces.
  virtual const CondensingPlan* condensing_plan() const { return nullptr; }
};

}  // namespace evc::opt
