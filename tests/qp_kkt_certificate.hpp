// KKT certificate of a QP solution, shared by the randomized QP sweeps:
// primal and dual feasibility, stationarity and complementary slackness.
#pragma once

#include <gtest/gtest.h>

#include <cmath>

#include "optim/qp.hpp"

namespace evc::opt {

inline void expect_kkt_certificate(const QpProblem& p, const QpResult& r) {
  // Primal feasibility.
  if (p.num_eq() > 0) {
    EXPECT_LT((p.e_mat * r.x - p.e_vec).norm_inf(), 1e-6);
  }
  const num::Vector ax = p.a_mat * r.x;
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_LT(ax[i] - p.b_vec[i], 1e-6);
  // Dual feasibility.
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_GT(r.z_ineq[i], -1e-8);
  // Stationarity.
  num::Vector stat = p.h * r.x + p.g;
  if (p.num_eq() > 0) stat += p.e_mat.transpose_times(r.y_eq);
  stat += p.a_mat.transpose_times(r.z_ineq);
  EXPECT_LT(stat.norm_inf(), 1e-5);
  // Complementary slackness.
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_LT(std::abs(r.z_ineq[i] * (p.b_vec[i] - ax[i])), 1e-5);
}

}  // namespace evc::opt
