#include "obs/trace.hpp"

#include "obs/trace_context.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/json.hpp"

namespace evc::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceContext& ambient_trace_context() {
  thread_local TraceContext ctx;
  return ctx;
}

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One thread's event storage. Written only by the owning thread (head
/// advances with release so the exporter's acquire load sees completed
/// slots); kept alive past thread exit by the shared_ptr registry so a
/// short-lived worker's spans survive into the export.
struct Tracer::ThreadRing {
  std::array<TraceEvent, Tracer::kRingCapacity> events{};
  std::atomic<std::uint64_t> head{0};  ///< total events ever recorded
  std::uint32_t tid = 0;
  double sim_time_s = std::numeric_limits<double>::quiet_NaN();
};

struct Tracer::Impl {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
};

Tracer::Tracer() : epoch_ns_(steady_now_ns()), impl_(new Impl) {}

Tracer& Tracer::global() {
  // Leaked: worker threads may record during static destruction order.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
#if defined(EVC_OBS_NO_TRACING)
  (void)on;
#else
  enabled_.store(on, std::memory_order_relaxed);
#endif
}

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

Tracer::ThreadRing& Tracer::local_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [this]() {
    auto fresh = std::make_shared<ThreadRing>();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    fresh->tid = static_cast<std::uint32_t>(impl_->rings.size());
    impl_->rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

void Tracer::set_sim_time(double time_s) {
  if (!enabled()) return;
  local_ring().sim_time_s = time_s;
}

void Tracer::record(TraceEventKind kind, const char* name,
                    std::uint64_t start_ns, std::uint64_t dur_ns,
                    const TraceArg* args, std::size_t num_args, double value,
                    std::uint64_t trace_id, std::uint64_t span_id,
                    std::uint64_t parent_span_id) {
  ThreadRing& ring = local_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  TraceEvent& e = ring.events[head % kRingCapacity];
  e.name = name;
  for (std::size_t i = 0; i < kMaxTraceArgs; ++i)
    e.args[i] = i < num_args ? args[i] : TraceArg{};
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.value = value;
  e.sim_time_s = ring.sim_time_s;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span_id = parent_span_id;
  e.kind = kind;
  ring.head.store(head + 1, std::memory_order_release);
}

void Tracer::record_span(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, const char* arg_name,
                         double arg_value) {
  if (!enabled()) return;
  const TraceContext& ctx = ambient_trace_context();
  const std::uint64_t span_id = ctx.active() ? next_span_id() : 0;
  const TraceArg arg{arg_name, arg_value};
  record(TraceEventKind::kSpan, name, start_ns, dur_ns, &arg,
         arg_name != nullptr ? 1 : 0, 0.0, ctx.trace_id, span_id,
         ctx.parent_span_id);
}

void Tracer::record_span(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, const TraceArg* args,
                         std::size_t num_args, std::uint64_t trace_id,
                         std::uint64_t span_id,
                         std::uint64_t parent_span_id) {
  if (!enabled()) return;
  record(TraceEventKind::kSpan, name, start_ns, dur_ns, args, num_args, 0.0,
         trace_id, span_id, parent_span_id);
}

void Tracer::instant(const char* name, double value) {
  if (!enabled()) return;
  const TraceContext& ctx = ambient_trace_context();
  record(TraceEventKind::kInstant, name, now_ns(), 0, nullptr, 0, value,
         ctx.trace_id, 0, ctx.parent_span_id);
}

void Tracer::counter(const char* name, double value) {
  if (!enabled()) return;
  record(TraceEventKind::kCounter, name, now_ns(), 0, nullptr, 0, value, 0,
         0, 0);
}

TraceStats Tracer::stats() const {
  TraceStats out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.threads = impl_->rings.size();
  for (const auto& ring : impl_->rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    out.recorded += static_cast<std::size_t>(
        std::min<std::uint64_t>(head, kRingCapacity));
    if (head > kRingCapacity)
      out.dropped += static_cast<std::size_t>(head - kRingCapacity);
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& ring : impl_->rings)
    ring->head.store(0, std::memory_order_release);
}

void Tracer::write_chrome_json(std::ostream& out) const {
  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  const TraceStats totals = stats();
  json.key("otherData");
  json.begin_object();
  json.key("clock").value("steady");
  json.key("recorded").value(totals.recorded);
  json.key("dropped").value(totals.dropped);
  json.end_object();
  json.key("traceEvents");
  json.begin_array();

  json.begin_object();
  json.key("name").value("process_name");
  json.key("ph").value("M");
  json.key("pid").value(0);
  json.key("tid").value(0);
  json.key("args");
  json.begin_object();
  json.key("name").value("evclimate");
  json.end_object();
  json.end_object();

  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& ring : impl_->rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kRingCapacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const TraceEvent& e = ring->events[i % kRingCapacity];
      json.begin_object();
      json.key("name").value(e.name != nullptr ? e.name : "?");
      json.key("cat").value("evc");
      switch (e.kind) {
        case TraceEventKind::kSpan:
          json.key("ph").value("X");
          json.key("dur").value(static_cast<double>(e.dur_ns) / 1000.0);
          break;
        case TraceEventKind::kInstant:
          json.key("ph").value("i");
          json.key("s").value("t");
          break;
        case TraceEventKind::kCounter:
          json.key("ph").value("C");
          break;
      }
      json.key("ts").value(static_cast<double>(e.start_ns) / 1000.0);
      json.key("pid").value(0);
      json.key("tid").value(ring->tid);
      json.key("args");
      json.begin_object();
      if (e.kind == TraceEventKind::kCounter ||
          (e.kind == TraceEventKind::kInstant && e.value != 0.0)) {
        json.key("value").value(e.value);
      }
      for (const TraceArg& a : e.args) {
        if (a.name == nullptr) break;
        json.key(a.name).value(a.value);
      }
      if (std::isfinite(e.sim_time_s))
        json.key("sim_time_s").value(e.sim_time_s);
      if (e.trace_id != 0) {
        json.key("trace_id").value(e.trace_id);
        if (e.span_id != 0) json.key("span_id").value(e.span_id);
        if (e.parent_span_id != 0)
          json.key("parent_span_id").value(e.parent_span_id);
      }
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  out << json.str();
}

std::string Tracer::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

TraceSpan::TraceSpan(const char* name) {
  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) {
    name_ = name;
    start_ns_ = tracer.now_ns();
    TraceContext& ctx = ambient_trace_context();
    if (ctx.active()) {
      // Allocate the id now and become the ambient parent, so spans opened
      // inside this scope (possibly deep in another library) link to us.
      trace_id_ = ctx.trace_id;
      span_id_ = next_span_id();
      parent_span_id_ = ctx.parent_span_id;
      ctx.parent_span_id = span_id_;
    }
  }
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr) return;
  if (span_id_ != 0) {
    // Pop the ambient parent even if the tracer was disabled mid-span —
    // the context's nesting must survive either way.
    TraceContext& ctx = ambient_trace_context();
    if (ctx.parent_span_id == span_id_) ctx.parent_span_id = parent_span_id_;
  }
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;  // disabled mid-span: drop it
  tracer.record_span(name_, start_ns_, tracer.now_ns() - start_ns_,
                     args_.data(), num_args_, trace_id_, span_id_,
                     parent_span_id_);
}

TraceEnvGuard::TraceEnvGuard() {
  const char* env = std::getenv("EVC_TRACE");
  init(env != nullptr ? std::string(env) : std::string());
}

TraceEnvGuard::TraceEnvGuard(std::string path_override) {
  if (path_override.empty()) {
    const char* env = std::getenv("EVC_TRACE");
    if (env != nullptr) path_override = env;
  }
  init(std::move(path_override));
}

void TraceEnvGuard::init(std::string path) {
  if (path.empty()) return;
#if defined(EVC_OBS_NO_TRACING)
  std::fprintf(stderr,
               "EVC_TRACE=%s ignored: tracing compiled out "
               "(EVCLIMATE_TRACING=OFF)\n",
               path.c_str());
#else
  path_ = std::move(path);
  active_ = true;
  Tracer::global().set_enabled(true);
#endif
}

TraceEnvGuard::~TraceEnvGuard() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  std::ofstream out(path_, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "EVC_TRACE: cannot open '%s' for writing\n",
                 path_.c_str());
    return;
  }
  tracer.write_chrome_json(out);
  const TraceStats totals = tracer.stats();
  std::fprintf(stderr,
               "EVC_TRACE: wrote %s (%zu events, %zu dropped, %zu threads)\n",
               path_.c_str(), totals.recorded, totals.dropped, totals.threads);
}

}  // namespace evc::obs
