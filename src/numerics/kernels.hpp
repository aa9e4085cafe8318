// In-place BLAS-style kernels for the solver hot path.
//
// The Matrix/Vector operators allocate a fresh result on every call, which
// is fine for setup code but poisons the per-iteration loops of the QP/SQP
// solvers. These kernels write into caller-provided buffers instead, so a
// solver that owns a workspace performs zero heap allocations at steady
// state. Output buffers are resized to the correct dimension (an allocation
// only the first time; afterwards the capacity is reused).
//
// Execution: the inner loops run through the runtime-selected SIMD target
// (numerics/simd.hpp) using the blocked accumulation order, which is
// bit-identical across every target.
//
// Aliasing: output buffers must not alias any input (the loops read inputs
// while writing outputs). This is asserted where cheap.
#pragma once

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

/// y := α·A·x + β·y. `y` is resized to a.rows() when β == 0; otherwise it
/// must already have that size. `y` must not alias `x`.
void gemv(double alpha, const Matrix& a, const Vector& x, double beta,
          Vector& y);

/// y := α·x + y (same as Vector::add_scaled, in kernel spelling).
void axpy(double alpha, const Vector& x, Vector& y);

/// Σ x_i·y_i through the dispatched kernel, in blocked order.
double dot(const Vector& x, const Vector& y);

/// dst := src, reusing dst's backing store when its capacity suffices.
void copy_into(const Vector& src, Vector& dst);
void copy_into(const Matrix& src, Matrix& dst);

// Raw-pointer variants for callers that manage their own buffers (the
// condensed QP backend works on rows of packed workspace matrices).

/// Σ x[i]·y[i] over n elements.
double dot_span(const double* x, const double* y, std::size_t n);
/// dot_span(x, y, n) for finite inputs whose products outside
/// [first, last] are all exact zeros: the kernel runs over only the
/// kDotBlock-aligned blocks that cover [first, last], which returns the
/// same bits (see simd_blocked.hpp). Requires first ≤ last < n.
double dot_span_between(const double* x, const double* y, std::size_t n,
                        std::size_t first, std::size_t last);
/// y[i] += a·x[i] over n elements.
void axpy_span(double a, const double* x, double* y, std::size_t n);
/// y[i] += alpha·(A·x)[i]; A is rows×cols row-major, leading dimension lda.
void gemv_span(double alpha, const double* a, std::size_t lda,
               std::size_t rows, std::size_t cols, const double* x, double* y);

}  // namespace evc::num
