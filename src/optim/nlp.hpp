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
#include <memory>

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::opt {

struct CondensingPlan;

/// Identity of a problem's fixed structure (NlpProblem::fixed_structure).
/// It holds nothing: handles are compared by address, and a solver that
/// remembers one keeps it alive, so no other structure can reuse its
/// address meanwhile.
struct FixedStructure {};
using FixedStructureHandle = std::shared_ptr<const FixedStructure>;

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
  /// Jacobian ∂c/∂x (num_eq() × num_vars()) into `j`, which is resized
  /// and overwritten (its storage is reused when large enough).
  virtual void eq_jacobian(const num::Vector& x, num::Matrix& j) const = 0;

  /// Fixed linear inequalities A x ≤ b. May have zero rows.
  virtual const num::Matrix& ineq_matrix() const = 0;
  virtual const num::Vector& ineq_vector() const = 0;

  /// Handle of the fixed structure: cost_hessian() and ineq_matrix(). A
  /// solver may keep what it derived from them for as long as the problem
  /// returns the same handle, so a problem must return a new handle
  /// whenever either changes (a copy of the problem may share it). The
  /// default, no handle, makes the solver rebuild on every solve.
  virtual FixedStructureHandle fixed_structure() const { return nullptr; }

  /// Elimination order for the SQP's QP solver (optim/condensed_qp):
  /// which equality row is solved for which variable. The plan must be
  /// finalized and fit the problem (num_vars(), num_eq() and at least one
  /// free variable); the solver rejects one that does not with
  /// EVC_EXPECT. A linearization whose pivots or triangularity fail the
  /// plan ends the solve with kQpFailure.
  virtual const CondensingPlan* condensing_plan() const = 0;
};

}  // namespace evc::opt
