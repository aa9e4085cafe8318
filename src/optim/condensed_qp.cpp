#include "optim/condensed_qp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "numerics/kernels.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace evc::opt {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Minimum pivot magnitude accepted when triangularizing E.
constexpr double kMinPivot = 1e-8;

}  // namespace

const char* to_string(QpBackend backend) {
  switch (backend) {
    case QpBackend::kCondensed:
      return "condensed";
  }
  return "unknown";
}

bool CondensingPlan::finalize() {
  free_cols.clear();
  if (dep_rows.size() != dep_cols.size()) return false;
  if (dep_cols.size() > num_vars) return false;
  std::vector<unsigned char> row_seen(dep_rows.size(), 0);
  std::vector<unsigned char> col_seen(num_vars, 0);
  for (std::size_t i = 0; i < dep_rows.size(); ++i) {
    // Every equality row must be consumed exactly once, so rows are a
    // permutation of 0..num_eq-1; columns must be distinct and in range.
    if (dep_rows[i] >= dep_rows.size() || row_seen[dep_rows[i]] != 0)
      return false;
    if (dep_cols[i] >= num_vars || col_seen[dep_cols[i]] != 0) return false;
    row_seen[dep_rows[i]] = 1;
    col_seen[dep_cols[i]] = 1;
  }
  free_cols.reserve(num_vars - dep_cols.size());
  for (std::size_t c = 0; c < num_vars; ++c)
    if (col_seen[c] == 0) free_cols.push_back(c);
  return true;
}

bool CondensedQpSolver::condense(const QpProblem& qp, const QpNonzeros& nz,
                                 const CondensingPlan& plan) {
  const std::size_t n = plan.num_vars;
  const std::size_t me = plan.num_eq();
  const std::size_t nf = plan.num_free();
  const num::SparseRows& e = nz.e;
  dep_step_.assign(n, me);
  for (std::size_t i = 0; i < me; ++i) dep_step_[plan.dep_cols[i]] = i;

  // Structural check against the actual matrix: in elimination order, row i
  // must not touch a variable eliminated later, and its pivot must be solid.
  pivots_.assign(me, 0.0);
  for (std::size_t i = 0; i < me; ++i) {
    const double pivot = qp.e_mat(plan.dep_rows[i], plan.dep_cols[i]);
    if (std::abs(pivot) < kMinPivot) return false;
    pivots_[i] = pivot;
    const std::size_t row = plan.dep_rows[i];
    for (std::size_t t = e.row_ptr[row]; t < e.row_ptr[row + 1]; ++t) {
      const std::size_t step = dep_step_[e.cols[t]];
      if (step > i && step < me) return false;
    }
  }

  // Null-space basis Z by forward substitution: free rows are unit vectors,
  // each dependent row is solved from its equality row (which, by the order
  // just verified, references only rows already filled in), walking the
  // row's nonzeros in ascending column order.
  z_.resize(n, nf);
  for (std::size_t t = 0; t < nf; ++t) z_(plan.free_cols[t], t) = 1.0;
  for (std::size_t i = 0; i < me; ++i) {
    const std::size_t row = plan.dep_rows[i];
    const std::size_t col = plan.dep_cols[i];
    double* z_col = z_.row_ptr(col);
    for (std::size_t t = e.row_ptr[row]; t < e.row_ptr[row + 1]; ++t) {
      const std::size_t j = e.cols[t];
      if (j == col) continue;
      num::axpy_span(-e.vals[t] / pivots_[i], z_.row_ptr(j), z_col, nf);
    }
  }
  z_nz_.assign(z_);

  // H·Z and A·Z over the nonzeros of both factors. Each output entry still
  // sums its products in ascending k, the order of the dense kernels, and a
  // skipped product is an exact zero — so the sums are the dense bits.
  times_z(nz.h, hz_, nullptr);
  times_z(nz.a, a_r_, &a_r_short_);

  // ZᵀHZ the same way: row i of the dense product Zᵀ·(H·Z) adds
  // Z(k, i)·(H·Z)(k, :) for k ascending, so walking k over Z's nonzeros
  // reproduces it with about one ninth of the row updates.
  h_r_.resize(nf, nf);
  for (std::size_t k = 0; k < n; ++k) {
    const double* hz_row = hz_.row_ptr(k);
    for (std::size_t t = z_nz_.row_ptr[k]; t < z_nz_.row_ptr[k + 1]; ++t)
      num::axpy_span(z_nz_.vals[t], hz_row, h_r_.row_ptr(z_nz_.cols[t]), nf);
  }
  h_r_.symmetrize();
  if (!chol_hr_.factorize(h_r_)) return false;

  // Dual-recovery table: for elimination step i, the nonzeros of E's
  // column dep_cols[i] in later dependent rows (the strictly-lower part of
  // the triangularized block, consumed backwards when recovering y), in
  // ascending step order. Counted, then filled, walking the rows in
  // elimination order.
  col_ptr_.assign(me + 1, 0);
  for (std::size_t j = 0; j < me; ++j) {
    const std::size_t row = plan.dep_rows[j];
    for (std::size_t t = e.row_ptr[row]; t < e.row_ptr[row + 1]; ++t)
      if (dep_step_[e.cols[t]] < j) ++col_ptr_[dep_step_[e.cols[t]] + 1];
  }
  for (std::size_t i = 0; i < me; ++i) col_ptr_[i + 1] += col_ptr_[i];
  col_j_.resize(col_ptr_[me]);
  col_val_.resize(col_ptr_[me]);
  fill_.assign(col_ptr_.begin(), col_ptr_.end() - 1);
  for (std::size_t j = 0; j < me; ++j) {
    const std::size_t row = plan.dep_rows[j];
    for (std::size_t t = e.row_ptr[row]; t < e.row_ptr[row + 1]; ++t) {
      const std::size_t i = dep_step_[e.cols[t]];
      if (i >= j) continue;
      col_j_[fill_[i]] = j;
      col_val_[fill_[i]++] = e.vals[t];
    }
  }
  return true;
}

void CondensedQpSolver::times_z(const num::SparseRows& m, num::Matrix& out,
                                num::ShortRows* short_rows) {
  const std::size_t nf = z_.cols();
  out.resize(m.rows(), nf);
  if (short_rows != nullptr) {
    short_rows->reset(m.rows());
    touched_by_.assign(nf, m.rows());
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* out_row = out.row_ptr(i);
    std::size_t touched = 0;
    for (std::size_t s = m.row_ptr[i]; s < m.row_ptr[i + 1]; ++s) {
      const std::size_t k = m.cols[s];
      const double mik = m.vals[s];
      for (std::size_t t = z_nz_.row_ptr[k]; t < z_nz_.row_ptr[k + 1]; ++t) {
        const std::size_t c = z_nz_.cols[t];
        out_row[c] += mik * z_nz_.vals[t];
        if (short_rows != nullptr && touched_by_[c] != i) {
          touched_by_[c] = i;
          if (touched < 2) short_rows->cols[2 * i + touched] = c;
          ++touched;
        }
      }
    }
    // Every column the products did not touch holds an exact +0.
    if (short_rows != nullptr && touched <= 2) {
      std::size_t* c = &short_rows->cols[2 * i];
      if (touched == 2 && c[1] < c[0]) std::swap(c[0], c[1]);
      for (std::size_t t = 0; t < touched; ++t)
        short_rows->vals[2 * i + t] = out_row[c[t]];
      short_rows->len[i] = static_cast<unsigned char>(touched);
    }
  }
}

QpResult CondensedQpSolver::solve(const QpProblem& qp, const QpNonzeros& nz,
                                  const CondensingPlan& plan,
                                  QpPerfCounters& counters,
                                  const std::vector<std::size_t>* warm_active) {
  qp.validate();
  EVC_EXPECT(plan.num_vars == qp.num_vars() && plan.num_eq() == qp.num_eq() &&
                 plan.num_free() == qp.num_vars() - qp.num_eq() &&
                 plan.num_free() > 0,
             "condensed QP: the condensing plan does not fit the problem");
  EVC_EXPECT(nz.h.rows() == qp.num_vars() && nz.e.rows() == qp.num_eq() &&
                 nz.a.rows() == qp.num_ineq(),
             "condensed QP: nonzero views do not match the problem");
  QpResult result;

  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = qp.num_vars();
  const std::size_t me = qp.num_eq();
  const std::size_t nf = plan.num_free();
  const std::size_t mi = qp.num_ineq();

  {
    EVC_TRACE_SPAN("qp.condense");
    if (!condense(qp, nz, plan)) return result;
  }
  ++counters.factorizations;
  counters.factorize_time_ns += elapsed_ns(start);

  // Particular solution E·d_p = e with free variables pinned to zero, by
  // the same forward substitution that built Z.
  d_p_.assign(n, 0.0);
  for (std::size_t i = 0; i < me; ++i) {
    const std::size_t row = plan.dep_rows[i];
    const double acc = qp.e_vec[row] - nz.e.dot(row, qp.e_mat, d_p_.ptr());
    d_p_[plan.dep_cols[i]] = acc / pivots_[i];
  }

  // Reduced gradient g_r = Zᵀ(H·d_p + g) and rhs b_r = b − A·d_p.
  rhs_full_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) rhs_full_[j] = qp.g[j];
  nz.h.gemv(1.0, qp.h, d_p_.ptr(), rhs_full_.ptr());
  g_r_.assign(nf, 0.0);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = z_nz_.row_ptr[k]; t < z_nz_.row_ptr[k + 1]; ++t)
      g_r_[z_nz_.cols[t]] += rhs_full_[k] * z_nz_.vals[t];
  b_r_.assign(mi, 0.0);
  for (std::size_t i = 0; i < mi; ++i) b_r_[i] = qp.b_vec[i];
  nz.a.gemv(-1.0, qp.a_mat, d_p_.ptr(), b_r_.ptr());

  // Warm working set: the caller's seed rows that exist in this problem,
  // ascending and once each. It keeps the rows active at a degenerate
  // vertex, whose multipliers are zero, and every row with a nonzero
  // multiplier, which is always a working row. Derived fresh from the
  // caller's seed every time — the solver itself keeps no hidden
  // cross-solve state.
  warm_idx_.clear();
  const bool warm = warm_active != nullptr;
  if (warm) {
    seed_mark_.assign(mi, 0);
    for (const std::size_t i : *warm_active)
      if (i < mi) seed_mark_[i] = 1;
    for (std::size_t i = 0; i < mi; ++i)
      if (seed_mark_[i] != 0) warm_idx_.push_back(i);
  }

  DenseActiveSetOutput as_out;
  {
    EVC_TRACE_SPAN_VAR(span, "qp.active_set");
    as_out = active_set_.solve(chol_hr_, h_r_, a_r_, &a_r_short_, g_r_, b_r_,
                               warm_idx_, v_, lam_);
    span.arg("iterations", static_cast<double>(as_out.iterations));
    span.arg("set_changes", static_cast<double>(as_out.set_changes));
  }
  if (!as_out.usable()) {
    result.status = as_out.status;
    return result;
  }

  // Expand v back to the full space and recover the multipliers.
  result.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) result.x[j] = d_p_[j];
  z_nz_.gemv(1.0, z_, v_.ptr(), result.x.ptr());
  result.z_ineq.assign(mi, 0.0);
  for (std::size_t i = 0; i < mi; ++i) result.z_ineq[i] = lam_[i];

  // Equality duals from stationarity H·x + g + Eᵀy + Aᵀz = 0, solved over
  // the dependent columns in reverse elimination order (Eᵀ restricted to
  // those columns is upper triangular in that order).
  hx_.assign(n, 0.0);
  nz.h.gemv(1.0, qp.h, result.x.ptr(), hx_.ptr());
  result.objective = 0.5 * num::dot_span(result.x.ptr(), hx_.ptr(), n) +
                     num::dot_span(qp.g.ptr(), result.x.ptr(), n);
  // hx_ comes from a kernel sum that starts at +0 and g is added to it, so
  // no entry is −0 and Aᵀλ may skip A's zeros (see SparseRows::gemv_t).
  y_eq_rhs_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) y_eq_rhs_[j] = hx_[j] + qp.g[j];
  nz.a.gemv_t(lam_.ptr(), y_eq_rhs_.ptr());
  result.y_eq.assign(me, 0.0);
  for (std::size_t i = me; i-- > 0;) {
    double acc = -y_eq_rhs_[plan.dep_cols[i]];
    for (std::size_t t = col_ptr_[i]; t < col_ptr_[i + 1]; ++t)
      acc -= col_val_[t] * result.y_eq[plan.dep_rows[col_j_[t]]];
    result.y_eq[plan.dep_rows[i]] = acc / pivots_[i];
  }

  result.status = QpStatus::kSolved;
  result.iterations = as_out.iterations;
  result.kkt_residual = as_out.kkt_residual;
  result.active_ineq = active_set_.active_set();
  std::sort(result.active_ineq.begin(), result.active_ineq.end());

  ++counters.solves;
  if (warm) ++counters.warm_starts;
  counters.active_set_changes += as_out.set_changes;
  counters.solve_time_ns += elapsed_ns(start);
  counters.peak_workspace_bytes =
      std::max(counters.peak_workspace_bytes, bytes());
  return result;
}

std::size_t CondensedQpSolver::bytes() const {
  const std::size_t mats =
      (z_.capacity() + hz_.capacity() + h_r_.capacity() + a_r_.capacity()) *
      sizeof(double);
  const std::size_t vecs =
      (d_p_.capacity() + rhs_full_.capacity() + g_r_.capacity() +
       b_r_.capacity() + v_.capacity() + lam_.capacity() + hx_.capacity() +
       y_eq_rhs_.capacity() + pivots_.capacity() + col_val_.capacity() +
       z_nz_.vals.capacity()) *
      sizeof(double);
  const std::size_t idx =
      (col_ptr_.capacity() + col_j_.capacity() + z_nz_.row_ptr.capacity() +
       z_nz_.cols.capacity() + warm_idx_.capacity() + dep_step_.capacity() +
       touched_by_.capacity() + fill_.capacity() +
       a_r_short_.cols.capacity()) *
      sizeof(std::size_t);
  return mats + vecs + idx + seed_mark_.capacity() +
         a_r_short_.len.capacity() +
         a_r_short_.vals.capacity() * sizeof(double) +
         chol_hr_.workspace_bytes() + active_set_.bytes();
}

}  // namespace evc::opt
