// Request-scoped trace context: the per-request identity that turns the
// per-thread span rings into one causal chain.
//
// A TraceContext is allocated where a request enters the system (e.g.
// svc::SessionService::submit_step), carried with the request across queue
// hops and thread-pool task boundaries, and *installed* as a thread-local
// ambient context (ScopedTraceContext) wherever work runs on the request's
// behalf. While installed, every TraceSpan the thread opens — qp.active_set deep
// in the solver, io.fsync deep in the VFS — inherits the request's trace id
// and links to the innermost enclosing span via parent_span_id, so the
// Perfetto export reconstructs submit → queue wait → hydrate → step →
// solver → persist as one parent/child tree even though the pieces ran on
// different pool workers.
//
// Cost model: the context is a 32-byte POD in thread-local storage. With
// the tracer disabled nothing installs a context and spans never read it,
// so the disabled path stays byte-identical. Span ids are only allocated
// (one relaxed fetch_add) while a context is installed *and* the tracer is
// enabled.
#pragma once

#include <cstdint>

namespace evc::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;     ///< 0 = no request context installed
  std::uint64_t vehicle_id = 0;   ///< request owner (svc convention)
  std::uint64_t request_seq = 0;  ///< submission sequence number
  /// Innermost open span of this request on the current thread; new spans
  /// use it as their parent and replace it for their scope.
  std::uint64_t parent_span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// The calling thread's ambient context (mutable; default-inactive).
TraceContext& ambient_trace_context();

/// Process-unique ids, starting at 1 (0 is "none"). Relaxed atomics.
std::uint64_t next_trace_id();
std::uint64_t next_span_id();

/// RAII install of a request context on the current thread; restores the
/// previous ambient context on destruction. Safe to construct with an
/// inactive context (spans then record without causal links).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(ambient_trace_context()) {
    ambient_trace_context() = ctx;
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext() { ambient_trace_context() = saved_; }

 private:
  TraceContext saved_;
};

}  // namespace evc::obs
