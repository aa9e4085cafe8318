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

  /// Elimination order for the SQP's QP solver (optim/condensed_qp):
  /// which equality row is solved for which variable. The plan must be
  /// finalized and fit the problem (num_vars(), num_eq() and at least one
  /// free variable); the solver rejects one that does not with
  /// EVC_EXPECT. A linearization whose pivots or triangularity fail the
  /// plan ends the solve with kQpFailure.
  virtual const CondensingPlan* condensing_plan() const = 0;
};

}  // namespace evc::opt
