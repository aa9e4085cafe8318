// Ring-buffer span tracer with a Chrome trace-event (Perfetto) exporter.
//
// EVC_TRACE_SPAN("qp.condense") opens an RAII scope whose wall-clock interval
// is recorded when the scope closes. The hot path is built to disappear:
//   * runtime-disabled (the default): one relaxed atomic load per scope —
//     no clock reads, no ring writes, no allocation — so clean runs stay
//     byte-identical and within noise of an untraced build;
//   * compile-time disabled (EVCLIMATE_TRACING=OFF → EVC_OBS_NO_TRACING):
//     the macros expand to nothing at all;
//   * enabled: two steady_clock reads plus one store into a fixed-size
//     per-thread ring (kRingCapacity events, oldest overwritten) — no
//     locks, no allocation after a thread's first event.
//
// Every event carries both the wall-clock timestamp (ns since the tracer's
// epoch) and the simulation time the owning thread last published via
// set_sim_time(), so a Perfetto timeline can be correlated with the drive
// cycle. write_chrome_json() drains all thread rings into the Chrome
// trace-event JSON format (https://ui.perfetto.dev loads it directly).
//
// The exporter reads rings that other threads write; call it when writer
// threads are quiescent (end of main, TraceEnvGuard destructor) — the rings
// themselves are only ever written by their owning thread.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>

namespace evc::obs {

enum class TraceEventKind : std::uint8_t { kSpan, kInstant, kCounter };

/// One named numeric span argument.
struct TraceArg {
  const char* name = nullptr;  ///< static-lifetime string
  double value = 0.0;
};

/// Most named arguments one span carries.
inline constexpr std::size_t kMaxTraceArgs = 4;

struct TraceEvent {
  const char* name = nullptr;      ///< static-lifetime string
  std::uint64_t start_ns = 0;      ///< since Tracer epoch
  std::uint64_t dur_ns = 0;        ///< 0 for instants/counters
  double value = 0.0;              ///< instant or counter value
  /// Span arguments in attach order; the first null name ends the list.
  std::array<TraceArg, kMaxTraceArgs> args{};
  double sim_time_s = 0.0;         ///< NaN when the thread never set it
  // Causal links (obs::TraceContext); all zero outside a request context.
  std::uint64_t trace_id = 0;        ///< request this event belongs to
  std::uint64_t span_id = 0;         ///< this span's id (spans only)
  std::uint64_t parent_span_id = 0;  ///< innermost enclosing span
  TraceEventKind kind = TraceEventKind::kSpan;
};

/// Totals across all thread rings (for tests and the exporter footer).
struct TraceStats {
  std::size_t recorded = 0;  ///< events currently held in rings
  std::size_t dropped = 0;   ///< events overwritten by ring wraparound
  std::size_t threads = 0;   ///< rings ever created
};

class Tracer {
 public:
  /// Events per thread ring. A ring is allocated on a thread's first
  /// event while tracing is on and costs 32,768 × 136 B ≈ 4.5 MB.
  static constexpr std::size_t kRingCapacity = 32768;

  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// No-op (stays disabled) when compiled out via EVC_OBS_NO_TRACING.
  void set_enabled(bool on);

  /// Nanoseconds since the tracer's construction (steady clock).
  std::uint64_t now_ns() const;

  /// Publish the simulation time stamped onto this thread's subsequent
  /// events. Cheap no-op while disabled.
  void set_sim_time(double time_s);

  /// Retroactive span (explicit start/duration, e.g. a queue wait measured
  /// after the fact). When the calling thread has an ambient TraceContext
  /// installed, the span is allocated an id and linked under the innermost
  /// enclosing span.
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, const char* arg_name = nullptr,
                   double arg_value = 0.0);
  /// Span with explicit causal ids and up to kMaxTraceArgs arguments (used
  /// by TraceSpan, which allocates its id at construction so children
  /// observed the right parent).
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, const TraceArg* args,
                   std::size_t num_args, std::uint64_t trace_id,
                   std::uint64_t span_id, std::uint64_t parent_span_id);
  void instant(const char* name, double value = 0.0);
  void counter(const char* name, double value);

  TraceStats stats() const;
  /// Drop every recorded event (rings stay registered) — test isolation.
  void clear();

  /// Chrome trace-event JSON of everything currently recorded. Call with
  /// writer threads quiescent.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

 private:
  Tracer();
  struct ThreadRing;
  ThreadRing& local_ring();
  void record(TraceEventKind kind, const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns, const TraceArg* args,
              std::size_t num_args, double value, std::uint64_t trace_id,
              std::uint64_t span_id, std::uint64_t parent_span_id);

  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_ = 0;  // steady_clock at construction

  struct Impl;
  Impl* impl_;  // leaked singleton internals (rings outlive exit order)
};

/// RAII span; see EVC_TRACE_SPAN. Records on destruction when the tracer
/// was enabled at construction. If the constructing thread has an ambient
/// TraceContext installed, the span allocates an id, links to the innermost
/// enclosing span, and becomes the parent of spans opened in its scope.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Attach a named numeric argument, e.g. span.arg("iterations", 12).
  /// Attaching a name again overwrites its value. The first kMaxTraceArgs
  /// names are kept, in attach order; further names are dropped.
  void arg(const char* name, double value) {
    if (name_ == nullptr) return;
    for (std::size_t i = 0; i < num_args_; ++i)
      if (std::strcmp(args_[i].name, name) == 0) {
        args_[i].value = value;
        return;
      }
    if (num_args_ < kMaxTraceArgs) args_[num_args_++] = TraceArg{name, value};
  }

  /// This span's causal id (0 when disabled or outside a request context).
  std::uint64_t span_id() const { return span_id_; }

 private:
  const char* name_ = nullptr;  ///< nullptr ⇒ tracer was disabled
  std::array<TraceArg, kMaxTraceArgs> args_{};  ///< first num_args_ are set
  std::size_t num_args_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;  ///< restored into ambient at dtor
};

/// No-op stand-in used when tracing is compiled out.
struct NullSpan {
  explicit NullSpan(const char*) {}
  void arg(const char*, double) {}
  std::uint64_t span_id() const { return 0; }
};

/// Process-lifetime guard wiring the EVC_TRACE=path.json convention: the
/// constructor enables the tracer when EVC_TRACE (or the explicit override)
/// names a file; the destructor disables it and writes the Chrome trace
/// there. Instantiate first thing in main(). With tracing compiled out the
/// guard warns on stderr and stays inactive; with EVC_TRACE unset it does
/// nothing and writes zero bytes.
class TraceEnvGuard {
 public:
  TraceEnvGuard();
  explicit TraceEnvGuard(std::string path_override);
  TraceEnvGuard(const TraceEnvGuard&) = delete;
  TraceEnvGuard& operator=(const TraceEnvGuard&) = delete;
  ~TraceEnvGuard();

  bool active() const { return active_; }
  const std::string& path() const { return path_; }

 private:
  void init(std::string path);
  std::string path_;
  bool active_ = false;
};

}  // namespace evc::obs

#if defined(EVC_OBS_NO_TRACING)
#define EVC_TRACE_SPAN(name)
#define EVC_TRACE_SPAN_VAR(var, name) ::evc::obs::NullSpan var(name)
#define EVC_TRACE_INSTANT(...)
#define EVC_TRACE_COUNTER(name, value)
#else
#define EVC_TRACE_CONCAT_IMPL(a, b) a##b
#define EVC_TRACE_CONCAT(a, b) EVC_TRACE_CONCAT_IMPL(a, b)
/// Anonymous RAII span covering the rest of the enclosing scope.
#define EVC_TRACE_SPAN(name) \
  ::evc::obs::TraceSpan EVC_TRACE_CONCAT(evc_trace_span_, __LINE__)(name)
/// Named RAII span, when the scope wants to attach an argument later.
#define EVC_TRACE_SPAN_VAR(var, name) ::evc::obs::TraceSpan var(name)
/// Instant event: EVC_TRACE_INSTANT(name) or EVC_TRACE_INSTANT(name, value).
#define EVC_TRACE_INSTANT(...)                                          \
  do {                                                                  \
    ::evc::obs::Tracer& evc_trace_t = ::evc::obs::Tracer::global();     \
    if (evc_trace_t.enabled()) evc_trace_t.instant(__VA_ARGS__);        \
  } while (0)
#define EVC_TRACE_COUNTER(name, value)                                  \
  do {                                                                  \
    ::evc::obs::Tracer& evc_trace_t = ::evc::obs::Tracer::global();     \
    if (evc_trace_t.enabled()) evc_trace_t.counter(name, value);        \
  } while (0)
#endif
