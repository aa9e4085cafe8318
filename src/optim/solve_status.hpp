// Structured outcome of an SQP solve for control-layer callers.
//
// Callers used to receive the solver's last iterate with no signal about
// *why* the iteration stopped; a supervisor cannot build a fallback chain on
// that. SolveStatus is the coarse classification the SQP maps its native
// status onto, so control-layer code (MPC controller, fault-tolerant
// supervisor) can branch on one enum:
//   kConverged        — tolerances met, result fully trustworthy,
//   kMaxIterations    — budgeted iterations exhausted; best iterate returned,
//   kTimeout          — wall-clock budget exhausted; best iterate returned,
//   kNumericalFailure — a QP subproblem had no usable solution; the
//                       returned point must NOT be applied to a plant.
#pragma once

#include <string>

namespace evc::opt {

enum class SolveStatus {
  kConverged,
  kMaxIterations,
  kTimeout,
  kNumericalFailure,
};

std::string to_string(SolveStatus status);

}  // namespace evc::opt
