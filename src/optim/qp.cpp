#include "optim/qp.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace evc::opt {

void QpProblem::validate() const {
  const std::size_t n = num_vars();
  EVC_EXPECT(n > 0, "QP with zero variables");
  EVC_EXPECT(h.rows() == n && h.cols() == n, "QP Hessian dimension mismatch");
  if (num_eq() > 0)
    EVC_EXPECT(e_mat.rows() == num_eq() && e_mat.cols() == n,
               "QP equality matrix dimension mismatch");
  else
    EVC_EXPECT(e_mat.rows() == 0, "QP equality matrix/vector mismatch");
  if (num_ineq() > 0)
    EVC_EXPECT(a_mat.rows() == num_ineq() && a_mat.cols() == n,
               "QP inequality matrix dimension mismatch");
  else
    EVC_EXPECT(a_mat.rows() == 0, "QP inequality matrix/vector mismatch");
}

QpPerfCounters& QpPerfCounters::operator+=(const QpPerfCounters& rhs) {
  solves += rhs.solves;
  factorizations += rhs.factorizations;
  dense_fallbacks += rhs.dense_fallbacks;
  warm_starts += rhs.warm_starts;
  workspace_growths += rhs.workspace_growths;
  peak_workspace_bytes = std::max(peak_workspace_bytes,
                                  rhs.peak_workspace_bytes);
  condensed_solves += rhs.condensed_solves;
  condense_rebuilds += rhs.condense_rebuilds;
  active_set_changes += rhs.active_set_changes;
  solve_time_ns += rhs.solve_time_ns;
  factorize_time_ns += rhs.factorize_time_ns;
  return *this;
}

}  // namespace evc::opt
