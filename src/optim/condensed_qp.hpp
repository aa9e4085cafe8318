// Condensed QP solver: the SQP layer's one QP solver.
//
// The SQP poses the full step-space QP — all 11N+2 variables, 6N+2
// equality rows — every iteration of every receding-horizon step. But the
// equalities are the *model*: given the 5N free inputs per step
// (supply temperature, compressor duty, recirculation, mass flow, comfort
// slack), the states and powers are determined. Condensing eliminates them
// up front (the Φ/Γ "prediction matrix" construction of classic MPC,
// generalized here to an arbitrary triangularizable equality structure):
//
//     d = Z·v + d_p       (d: all variables, v: free variables)
//
// with E·Z = 0 and E·d_p = e, turning the QP into a small dense input-space
// problem
//
//     min ½ vᵀ(ZᵀHZ) v + (Zᵀ(H·d_p + g))ᵀ v   s.t.  (A·Z) v ≤ b − A·d_p
//
// solved by the warm-started dense active-set method in
// optim/dense_active_set. The 60-variable dense QP is solved by a few
// active-set steps seeded from the previous subproblem's final working set
// (a mean of 5.8 on Fig. 5's closed loop, see dense_active_set.hpp).
//
// The solver keeps no cross-solve state: every call condenses the live
// QpProblem it is given, so its result is a pure function of that problem
// and the caller's working-set seed, and a checkpoint needs nothing from
// it. The condensing itself only pays for nonzeros, read from the caller's
// QpNonzeros views of H, E and A (gathered as often as each matrix changes)
// and from Z's, gathered once Z is built. E has about three nonzeros per
// row and Z about one in nine: Z, its triangularity check and the
// dual-recovery table come from E's view; H·Z, ZᵀHZ and A·Z are
// accumulated from the nonzero entries in the same order a dense product
// would add them; b − A·d_p, Aᵀλ, H·d_p, H·x and E·d_p sum each row from
// its entries when it has at most two (every MPC inequality row) and
// through the kernel over the blocks that hold its nonzeros otherwise — so
// every sum is bit-identical to the dense kernels. While forming A·Z the
// condensing records which of its rows hold at most two nonzeros (about
// 110 of the MPC's 192), and the active set dots those from their entries.
//
// Which variables are "dependent" and in what order they can be eliminated
// is problem knowledge, declared by the NLP through a CondensingPlan (the
// MPC formulation orders its rows so the dependent block is unit-lower-
// triangular-ish with pivots ≥ 1). A plan that does not fit its problem is
// a programming error and fails EVC_EXPECT. A pivot or triangularity
// failure against the actual matrix, like an active-set failure, returns an
// unusable result; the SQP then stops with kQpFailure and the supervisor
// demotes.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "optim/dense_active_set.hpp"
#include "optim/qp.hpp"

namespace evc::opt {

/// The QP engine the SQP layer uses for its subproblems. There is one; the
/// name is recorded in benchmark artifacts.
enum class QpBackend {
  kCondensed,  ///< condensed dense active set
};

const char* to_string(QpBackend backend);

/// Declaration of an eliminable equality structure: equality row
/// `dep_rows[i]` is solved for variable `dep_cols[i]`, in order. Valid iff
/// row dep_rows[i] has no nonzero in any dep_cols[j] with j > i (the
/// dependent block is lower triangular in elimination order) and every
/// pivot E(dep_rows[i], dep_cols[i]) stays well away from zero. All
/// equality rows must appear exactly once, so the elimination consumes the
/// entire equality system.
struct CondensingPlan {
  std::size_t num_vars = 0;
  std::vector<std::size_t> dep_rows;
  std::vector<std::size_t> dep_cols;
  /// Derived by finalize(): the non-dependent columns, ascending — the
  /// variables of the condensed QP, in the order Z's columns use.
  std::vector<std::size_t> free_cols;

  std::size_t num_eq() const { return dep_rows.size(); }
  std::size_t num_free() const { return free_cols.size(); }

  /// Validate index ranges/uniqueness and derive free_cols. Returns false
  /// (leaving the plan unusable) on any inconsistency. Triangularity and
  /// pivot health are structural properties of E and are checked against
  /// the actual matrix at every solve, not here.
  bool finalize();
};

/// Nonzero views of a QpProblem's H, E and A, gathered by the caller as
/// often as each matrix changes: the SQP gathers H and A once per solve and
/// E once per linearization, and reuses E's view for its second-order
/// correction. They must match the problem's dense matrices.
struct QpNonzeros {
  num::SparseRows h, e, a;
};

/// Condensed-backend solver. One instance per SQP solver; not thread-safe.
/// The members are scratch reused across calls to avoid allocation; none of
/// them carries information from one solve to the next.
class CondensedQpSolver {
 public:
  /// Condense `qp` along `plan` and solve it. `plan` must fit `qp` (same
  /// variable and equality counts, at least one free variable); a plan
  /// that does not fails EVC_EXPECT. On a pivot, triangularity or
  /// active-set failure returns a result that is not usable(). Every
  /// condensing books factorizations (it factors the reduced Hessian); a
  /// successful solve also books solves, warm_starts when `warm_active`
  /// seeded the active set, and active_set_changes into `counters`.
  /// `warm_active`, when not null, lists the inequality rows to seed the
  /// working set with (rows out of range are skipped). A successful result
  /// carries the final working set, ascending, in active_ineq — the seed
  /// for the next subproblem.
  QpResult solve(const QpProblem& qp, const QpNonzeros& nz,
                 const CondensingPlan& plan, QpPerfCounters& counters,
                 const std::vector<std::size_t>* warm_active);

  std::size_t bytes() const;

 private:
  /// Build Z, H_r = ZᵀHZ (+ Cholesky), A_r = A·Z with its short rows, and
  /// the dual-recovery tables from `qp` and its nonzero views. Returns false
  /// when E cannot be triangularized in plan order or H_r is not positive
  /// definite.
  bool condense(const QpProblem& qp, const QpNonzeros& nz,
                const CondensingPlan& plan);
  /// out := M·Z over the nonzeros of M and Z (needs z_nz_). With
  /// `short_rows`, also records the rows of `out` that hold at most two
  /// nonzeros, from the columns the products touch.
  void times_z(const num::SparseRows& m, num::Matrix& out,
               num::ShortRows* short_rows);

  // The condensed problem.
  num::Matrix z_;    ///< num_vars × num_free null-space basis, E·Z = 0
  num::Matrix hz_;   ///< H·Z
  num::Matrix h_r_;  ///< ZᵀHZ
  num::Matrix a_r_;  ///< A·Z
  num::ShortRows a_r_short_;  ///< A·Z's rows with at most two nonzeros
  num::CholeskyFactorization chol_hr_;
  std::vector<double> pivots_;  ///< E(dep_rows[i], dep_cols[i])
  /// Elimination step of each variable: i for dep_cols[i], num_eq() for a
  /// free variable.
  std::vector<std::size_t> dep_step_;
  // Dual recovery: for elimination step i, the sub-column nonzeros
  // E(dep_rows[j], dep_cols[i]) with j > i, flattened CSR-style.
  std::vector<std::size_t> col_ptr_, col_j_;
  std::vector<double> col_val_;
  num::SparseRows z_nz_;  ///< Z's nonzeros by row
  /// times_z scratch: the last output row that touched each column.
  std::vector<std::size_t> touched_by_;
  std::vector<std::size_t> fill_;  ///< dual-recovery table fill cursors

  DenseActiveSetSolver active_set_;

  // Per-solve scratch.
  num::Vector d_p_, rhs_full_, g_r_, b_r_, v_, lam_, hx_, y_eq_rhs_;
  std::vector<std::size_t> warm_idx_;
  std::vector<unsigned char> seed_mark_;
};

}  // namespace evc::opt
