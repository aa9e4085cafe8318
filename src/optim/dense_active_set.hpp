// Warm-started primal-dual active-set solver for small dense QPs
//
//   minimize    ½ vᵀH v + gᵀv        (H symmetric positive definite)
//   subject to  A v ≤ b
//
// — the input-space subproblem produced by the condensed MPC backend
// (optim/condensed_qp). The receding-horizon usage pattern is a sequence of
// nearly identical QPs whose optimal active set changes little from one
// solve to the next, which is the regime where an active-set method
// shines. Measured on Fig. 5's closed-loop ECE_EUDC run at 35 °C under the
// default MPC (N = 6, at most 4 SQP iterations), whose 943 warm solves are
// each seeded with the previous subproblem's final working set: a mean of
// 2.0 dual steps per solve, 39 % confirm optimality in one step, and none
// takes more than 9. Each plan's first subproblem averages 2.7 steps, its
// later ones 1.8. At the previous N = 12, 8-iteration default the same
// run's 1,836 warm solves took a mean of 5.8 steps, 17 % of them 17–32,
// nearly all in a plan's later iterations; seeded from the multiplier
// support alone, they took a mean of 31.9.
//
// Method: dual active set (Goldfarb–Idnani). Start at the optimum of a
// relaxed problem — the seeded working set W, pruned of any row whose
// equality-constrained multiplier
//     S λ_W = A_W H⁻¹(−g) − b_W,   S = A_W H⁻¹ A_Wᵀ,
// comes out negative — then repeatedly pick a violated constraint p and
// drive its multiplier up from zero. Each dual step moves (v, λ) along
//     dv = −z,  z = H⁻¹a_p − H⁻¹A_Wᵀ r,   dλ_W = −r,  r = S⁻¹ A_W H⁻¹ a_p,
// taking the smaller of the full step s_p/κ (κ = a_pᵀz, the curvature left
// in p's direction) and the first dual blocking step λ_k/r_k; a blocked
// step drops row k and retries, a full step adds p. The dual objective
// strictly increases, so termination is finite for strictly convex H — no
// cycling even on LP-like problems whose optimum is a vertex with ~n active
// rows (the condensed MPC cost is exactly that: linear power and slack
// terms, curvature only from the SoC/comfort quadratics and the SQP
// regularization). A correct warm seed short-circuits to one EQP solve plus
// one feasibility scan. tests/dense_active_set_test checks the result's
// KKT certificate and, on small problems, the optimum found by enumerating
// every working set.
//
// Rows of A with at most two nonzeros — about 110 of the condensed MPC's
// 192 at N = 12, and most of a working set, since bounds on one input
// condense to one entry — may be passed as a num::ShortRows table by a
// caller that knows them (the condensing, which forms A). Every dot with
// such a row is then formed from its entries, with the blocked kernel's
// bits; a caller with no such structure passes none and pays for no scan.
// The Cholesky solves H⁻¹a_p skip the zero prefix of a_p
// (CholeskyFactorization::solve_into).
//
// The Cholesky factor of S is maintained incrementally: adding a constraint
// appends one row (a triangular solve — arithmetic identical to the
// corresponding column step of a fresh factorization), removing one
// re-triangularizes the trailing block with a rank-one update instead of
// refactorizing (SchurCholesky below; verified against a from-scratch
// factorization in tests/dense_active_set_test). The factor of H itself is
// owned by the *caller* and passed in: the condensed backend factors its
// reduced Hessian once per subproblem, before this solver runs.
//
// Step cap: 2·(m + n) dual steps, derived from the problem's size rather
// than fixed. Finite termination gives no useful bound of its own, so the
// factor comes from measurement: at N = 12 the longest solves seen took
// 251–270 steps on the MPC's m + n = 252 subproblem (chaos soak, a plan's
// first SQP iteration after a fault), every other solve seen took at most
// 169, and the cap there is 504. At the default N = 6 (m + n = 126, cap
// 252) the same soak's longest solve takes 75 steps.
//
// Failure honesty: a singular Schur append (numerically dependent working
// rows), an infeasible subproblem (no curvature toward a violated row and
// nothing to drop) or the step cap all surface as a non-usable status. The
// SQP layer then stops with kQpFailure and the supervisor demotes.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "optim/qp.hpp"

namespace evc::opt {

/// Cholesky factor L of a symmetric positive definite matrix S that grows
/// and shrinks one row/column at a time (the active-set Schur complement).
/// Append solves L·l = s (the same arithmetic a fresh factorization would
/// perform for that column); remove deletes a row/column and restores
/// triangularity of the trailing block with a positive rank-one update.
class SchurCholesky {
 public:
  void reset() { m_ = 0; }
  std::size_t dim() const { return m_; }

  /// Grow S by one row/column whose off-diagonal block is `cross` (the m
  /// existing entries S(0..m-1, m)) and diagonal is `diag`. Returns false —
  /// leaving the factor unchanged — when the new pivot is not positive to
  /// tolerance (the new row is numerically dependent).
  bool append(const double* cross, double diag, double singular_tolerance);

  /// Remove row/column `k` (0-based) and re-triangularize the trailing
  /// block with a rank-one Cholesky update.
  void remove(std::size_t k);

  /// Solve S·x = b in place via L (forward + backward substitution).
  void solve_in_place(double* b) const;

  /// Factor entry L(r, c), r ≥ c — test introspection.
  double entry(std::size_t r, std::size_t c) const {
    return l_[r * cap_ + c];
  }

  std::size_t bytes() const {
    return l_.capacity() * sizeof(double) + v_.capacity() * sizeof(double);
  }

 private:
  double& at(std::size_t r, std::size_t c) { return l_[r * cap_ + c]; }
  double at(std::size_t r, std::size_t c) const { return l_[r * cap_ + c]; }
  void ensure_capacity(std::size_t m);

  std::size_t m_ = 0;    ///< current dimension
  std::size_t cap_ = 0;  ///< row stride of l_
  std::vector<double> l_;
  std::vector<double> v_;  ///< rank-one update scratch
};

struct DenseActiveSetOutput {
  QpStatus status = QpStatus::kNumericalIssue;
  std::size_t iterations = 0;   ///< dual steps performed (adds + drops)
  std::size_t set_changes = 0;  ///< constraints added + removed
  double kkt_residual = 0.0;    ///< max primal violation / dual negativity
  bool usable() const { return status == QpStatus::kSolved; }
};

class DenseActiveSetSolver {
 public:
  /// Solve min ½vᵀHv + gᵀv s.t. Av ≤ b. `h_chol` is the caller-owned
  /// Cholesky factor of H and `h` the matrix it factors — needed for the
  /// final KKT refinement, which polishes away the rounding error the
  /// incremental dual updates accumulate. `a_short`, when not null, lists
  /// A's rows with at most two nonzeros (one entry per row of A), whose
  /// dots are then formed from those entries. `warm_active`
  /// seeds the working set with constraint indices, added in the order
  /// given (a row numerically dependent on those before it is skipped; the
  /// condensed backend passes the previous subproblem's working set,
  /// ascending), and may be empty for a cold start.
  /// On success `v` holds the primal solution and `lambda` the
  /// full-length multiplier vector (zero at inactive rows). On failure the
  /// outputs are unspecified.
  ///
  /// Deterministic: the result is a pure function of the inputs — no state
  /// carries across calls, so a checkpoint-restored controller replays the
  /// same solves bit-for-bit.
  DenseActiveSetOutput solve(const num::CholeskyFactorization& h_chol,
                             const num::Matrix& h, const num::Matrix& a,
                             const num::ShortRows* a_short,
                             const num::Vector& g, const num::Vector& b,
                             const std::vector<std::size_t>& warm_active,
                             num::Vector& v, num::Vector& lambda);

  /// Working set of the most recent successful solve, in insertion order
  /// (surviving seed rows first, then rows as the dual steps added them) —
  /// the warm seed for the next solve in a receding-horizon sequence.
  /// Sort a copy where ascending order is needed.
  const std::vector<std::size_t>& active_set() const { return active_; }

  std::size_t bytes() const;

 private:
  bool try_add(const num::CholeskyFactorization& h_chol, const num::Matrix& a,
               const num::ShortRows* a_short, std::size_t idx);
  void remove_at(std::size_t pos);
  void ensure_hinv_rows(std::size_t rows, std::size_t cols);

  std::vector<std::size_t> active_;
  SchurCholesky schur_;
  /// Row t = (H⁻¹ a_{active_[t]})ᵀ — the columns of H⁻¹A_Wᵀ, stored as rows
  /// so every inner loop is contiguous.
  num::Matrix hinv_rows_;
  std::size_t hinv_count_ = 0;
  num::Vector w_, neg_g_, rhs_n_, hinv_new_, resid_;
  /// Working-set multipliers / dual step direction, aligned with active_.
  std::vector<double> lam_w_, r_w_;
  std::vector<double> cross_;
  std::vector<unsigned char> in_active_;
  std::vector<std::size_t> to_remove_;
};

}  // namespace evc::opt
