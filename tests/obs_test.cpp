// Unified telemetry layer: metrics registry (sharded counters, gauges,
// log-bucketed histograms), ring-buffer span tracer, flight recorder, and
// the guarantee the whole stack leans on — tracing disabled changes
// nothing about a simulation's results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics_json.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "obs/fields.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/json_parse.hpp"
#include "util/serialize.hpp"

namespace evc {
namespace {

// --- Metrics registry ---

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  obs::MetricsRegistry reg;
  const auto id = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) reg.add(id);
    });
  for (auto& t : threads) t.join();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].name, "test.hits");
  EXPECT_EQ(snap.metrics[0].kind, obs::MetricKind::kCounter);
  // Sharded relaxed increments must still lose nothing: exactly 80000.
  EXPECT_EQ(snap.metrics[0].counter,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeKeepsLastWrite) {
  obs::MetricsRegistry reg;
  const auto id = reg.gauge("test.temp");
  reg.set(id, 1.5);
  reg.set(id, -3.25);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].gauge, -3.25);
}

TEST(Metrics, RegistrationIsIdempotentAndKindClashThrows) {
  obs::MetricsRegistry reg;
  const auto a = reg.counter("test.name");
  const auto b = reg.counter("test.name");
  EXPECT_EQ(a, b);
  EXPECT_THROW(reg.gauge("test.name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("test.name"), std::invalid_argument);
}

TEST(Metrics, HistogramIsExactBelowSixteen) {
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.latency");
  // Values below 16 land in identity buckets — quantiles are exact.
  // Quantile = the ceil(q·count)-th sample, so with 100 samples p50 is
  // rank 50 and p99 is rank 99.
  for (int i = 0; i < 49; ++i) reg.observe(id, 7);
  for (int i = 0; i < 49; ++i) reg.observe(id, 3);
  reg.observe(id, 15);
  reg.observe(id, 15);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  const auto& h = snap.metrics[0].histogram;
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 49u * 7 + 49u * 3 + 2u * 15);
  EXPECT_EQ(h.max, 15u);
  EXPECT_EQ(h.p50, 7u);   // rank 50 of {3×49, 7×49, 15×2}
  EXPECT_EQ(h.p99, 15u);  // rank 99 lands on the first 15
}

TEST(Metrics, BucketBoundsAreIdentityBelowSixteenThenWithin12Point5Percent) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::MetricsRegistry::bucket_index(v), v);
    EXPECT_EQ(obs::MetricsRegistry::bucket_lower_bound(v), v);
  }
  // Above 16: the lower bound never exceeds the sample and is at most
  // 12.5 % (one sub-bucket of an 8-way-split octave) below it.
  std::size_t prev = obs::MetricsRegistry::bucket_index(15);
  for (std::uint64_t v : {16ull, 17ull, 100ull, 1000ull, 123456ull,
                          87654321ull, (1ull << 40) + 12345ull,
                          (1ull << 62) + 99ull}) {
    const std::size_t idx = obs::MetricsRegistry::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
    const std::uint64_t lb = obs::MetricsRegistry::bucket_lower_bound(idx);
    EXPECT_LE(lb, v);
    EXPECT_LE(v - lb, v / 8u) << "value " << v;
  }
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("test.c");
  const auto g = reg.gauge("test.g");
  const auto h = reg.histogram("test.h");
  reg.add(c, 5);
  reg.set(g, 2.0);
  reg.observe(h, 42);
  reg.reset();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].counter, 0u);
  EXPECT_EQ(snap.metrics[1].gauge, 0.0);
  EXPECT_EQ(snap.metrics[2].histogram.count, 0u);
  EXPECT_EQ(reg.counter("test.c"), c);
}

TEST(Metrics, SnapshotExportsWellFormedJsonAndCsv) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("test.hits"), 3);
  reg.set(reg.gauge("test.temp"), 21.5);
  reg.observe(reg.histogram("test.lat"), 100);
  const auto snap = reg.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"evclimate-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test.hits\":3"), std::string::npos);
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,test.hits,value,3"), std::string::npos);
  // Histograms expand to six rows: count,sum,max,p50,p90,p99.
  std::size_t lat_rows = 0, pos = 0;
  while ((pos = csv.find("histogram,test.lat,", pos)) != std::string::npos) {
    ++lat_rows;
    ++pos;
  }
  EXPECT_EQ(lat_rows, 6u);
}

TEST(Metrics, RegistryFieldSinkPublishesNestedGauges) {
  core::TripMetrics m;
  m.duration_s = 600.0;
  m.comfort.rms_error_c = 0.25;
  core::publish_metrics(m, "test.trip");
  const auto snap = obs::MetricsRegistry::global().snapshot();
  bool saw_duration = false, saw_comfort = false;
  for (const auto& metric : snap.metrics) {
    if (metric.name == "test.trip.duration_s") {
      saw_duration = true;
      EXPECT_EQ(metric.kind, obs::MetricKind::kGauge);
      EXPECT_EQ(metric.gauge, 600.0);
    }
    if (metric.name == "test.trip.comfort.rms_error_c") {
      saw_comfort = true;
      EXPECT_EQ(metric.gauge, 0.25);
    }
  }
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_comfort);
}

// --- Span tracer ---

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  {
    EVC_TRACE_SPAN("test.noop");
    EVC_TRACE_INSTANT("test.instant");
    EVC_TRACE_COUNTER("test.counter", 1.0);
  }
  EXPECT_EQ(tracer.stats().recorded, 0u);
}

#if !defined(EVC_OBS_NO_TRACING)
TEST(Trace, RingWrapsAroundAndCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  constexpr std::size_t kExtra = 100;
  const std::uint64_t t0 = tracer.now_ns();
  for (std::size_t i = 0; i < obs::Tracer::kRingCapacity + kExtra; ++i)
    tracer.record_span("test.span", t0, 1);
  const auto stats = tracer.stats();
  tracer.set_enabled(false);
  tracer.clear();
  EXPECT_EQ(stats.recorded, obs::Tracer::kRingCapacity);
  EXPECT_EQ(stats.dropped, kExtra);
}

TEST(Trace, ChromeJsonCarriesSpansArgsAndSimTime) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  tracer.set_sim_time(12.5);
  {
    EVC_TRACE_SPAN_VAR(span, "test.traced");
    span.arg("iterations", 7.0);
  }
  EVC_TRACE_INSTANT("test.mark");
  EVC_TRACE_COUNTER("test.level", 3.5);
  const std::string json = tracer.chrome_json();
  tracer.set_enabled(false);
  tracer.clear();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.traced\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"test.mark\""), std::string::npos);
  EXPECT_NE(json.find("\"test.level\""), std::string::npos);
  EXPECT_NE(json.find("sim_time"), std::string::npos);
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, SpanCarriesSeveralNamedArgs) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    EVC_TRACE_SPAN_VAR(span, "test.multi_arg");
    span.arg("iterations", 7.0);
    span.arg("status", 1.0);
    span.arg("iterations", 8.0);  // a repeated name overwrites its value
    span.arg("soc_tried", 3.0);
    span.arg("soc_steps", 2.0);
    span.arg("overflow", 9.0);  // beyond kMaxTraceArgs names: dropped
  }
  const JsonValue doc = parse_json(tracer.chrome_json());
  tracer.set_enabled(false);
  tracer.clear();

  const JsonValue* args = nullptr;
  for (const JsonValue& event : doc.find("traceEvents")->items())
    if (event.find("name")->as_string() == "test.multi_arg")
      args = event.find("args");
  ASSERT_NE(args, nullptr);
  static_assert(obs::kMaxTraceArgs == 4);
  ASSERT_NE(args->find("iterations"), nullptr);
  EXPECT_EQ(args->find("iterations")->as_number(), 8.0);
  ASSERT_NE(args->find("status"), nullptr);
  EXPECT_EQ(args->find("status")->as_number(), 1.0);
  ASSERT_NE(args->find("soc_tried"), nullptr);
  EXPECT_EQ(args->find("soc_tried")->as_number(), 3.0);
  ASSERT_NE(args->find("soc_steps"), nullptr);
  EXPECT_EQ(args->find("soc_steps")->as_number(), 2.0);
  EXPECT_EQ(args->find("overflow"), nullptr);
}
#endif  // !EVC_OBS_NO_TRACING

TEST(Trace, EnvGuardWithoutEnvWritesNothing) {
  const std::string path = "obs_test_should_not_exist.json";
  std::remove(path.c_str());
#if defined(_WIN32)
  _putenv_s("EVC_TRACE", "");
#else
  unsetenv("EVC_TRACE");
#endif
  {
    obs::TraceEnvGuard guard;
    EXPECT_FALSE(guard.active());
  }
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

// --- Flight recorder ---

obs::FlightRecord make_record(double t) {
  obs::FlightRecord rec;
  rec.time_s = t;
  rec.dt_s = 1.0;
  rec.cabin_temp_c = 22.0 + t;
  rec.tier = 1;
  rec.cabin_health = 2;
  rec.qp_iterations = 9;
  rec.solve_time_ns = 1234;
  return rec;
}

TEST(FlightRecorder, RingKeepsMostRecentRecords) {
  obs::FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i) rec.record(make_record(i));
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest first: steps 12..19 survive.
  EXPECT_EQ(snap.front().time_s, 12.0);
  EXPECT_EQ(snap.back().time_s, 19.0);
}

TEST(FlightRecorder, JsonDumpHasSchemaAndRecords) {
  obs::FlightRecorder rec(4);
  rec.record(make_record(0));
  rec.record(make_record(1));
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"schema\":\"evclimate-flight-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"qp_iterations\":9"), std::string::npos);
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorder, SaveLoadRoundTripsTheRing) {
  obs::FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i) rec.record(make_record(i));
  BinaryWriter w;
  rec.save_state(w);
  const std::string bytes = w.take();

  obs::FlightRecorder loaded(8);
  BinaryReader r(bytes);
  loaded.load_state(r);
  EXPECT_EQ(loaded.total_recorded(), rec.total_recorded());
  const auto a = rec.snapshot();
  const auto b = loaded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].cabin_temp_c, b[i].cabin_temp_c);
    EXPECT_EQ(a[i].tier, b[i].tier);
    EXPECT_EQ(a[i].cabin_health, b[i].cabin_health);
    EXPECT_EQ(a[i].qp_iterations, b[i].qp_iterations);
    EXPECT_EQ(a[i].solve_time_ns, b[i].solve_time_ns);
  }

  // A recorder configured with a different capacity must refuse the state.
  obs::FlightRecorder mismatched(16);
  BinaryReader r2(bytes);
  EXPECT_THROW(mismatched.load_state(r2), SerializationError);
}

// --- The cross-cutting guarantee: tracing never changes results ---

core::SimulationResult run_short_sim() {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kUdds, 32.0)
          .window(0, 90);
  auto controller = core::make_mpc_controller(params);
  core::SimulationOptions opts;
  opts.record_traces = true;
  opts.flight_recorder_capacity = 64;
  core::SimulationSession session(params, *controller, profile, opts);
  session.run_to_completion();
  // Flight records flow every step even in a clean run.
  EXPECT_EQ(session.flight_recorder().total_recorded(), 90u);
  return session.finish();
}

TEST(Trace, EnablingTracerLeavesSimulationByteIdentical) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  const auto baseline = run_short_sim();
  const std::size_t recorded_off = tracer.stats().recorded;
  EXPECT_EQ(recorded_off, 0u);  // disabled tracer: zero bytes recorded

  tracer.set_enabled(true);
  const auto traced = run_short_sim();
  tracer.set_enabled(false);
#if !defined(EVC_OBS_NO_TRACING)
  EXPECT_GT(tracer.stats().recorded, 0u);  // spans actually flowed
#endif
  tracer.clear();

  // The trip metrics are pure physics/control outputs — any byte of
  // difference means tracing perturbed a control decision.
  EXPECT_EQ(core::to_json(baseline.metrics), core::to_json(traced.metrics));
}

// --- Trace context / causal links ---

#if !defined(EVC_OBS_NO_TRACING)

namespace {
struct ParsedSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  bool found = false;
};

ParsedSpan find_span(const JsonValue& doc, const std::string& name) {
  ParsedSpan out;
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return out;
  for (const JsonValue& event : events->items()) {
    const JsonValue* n = event.find("name");
    const JsonValue* ph = event.find("ph");
    if (n == nullptr || !n->is_string() || n->as_string() != name) continue;
    if (ph == nullptr || ph->as_string() != "X") continue;
    out.found = true;
    const JsonValue* args = event.find("args");
    if (args == nullptr) return out;
    if (const JsonValue* v = args->find("trace_id"))
      out.trace_id = static_cast<std::uint64_t>(v->as_number());
    if (const JsonValue* v = args->find("span_id"))
      out.span_id = static_cast<std::uint64_t>(v->as_number());
    if (const JsonValue* v = args->find("parent_span_id"))
      out.parent_span_id = static_cast<std::uint64_t>(v->as_number());
    return out;
  }
  return out;
}
}  // namespace

TEST(TraceContext, NestedSpansFormAParentChildChain) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  obs::TraceContext ctx;
  ctx.trace_id = obs::next_trace_id();
  ctx.vehicle_id = 7;
  {
    obs::ScopedTraceContext ambient(ctx);
    EVC_TRACE_SPAN_VAR(outer, "ctxtest.outer");
    {
      EVC_TRACE_SPAN_VAR(inner, "ctxtest.inner");
      // Retroactive spans link under the innermost open span too.
      tracer.record_span("ctxtest.retro", tracer.now_ns(), 10);
      (void)inner;
    }
    (void)outer;
  }
  tracer.set_enabled(false);
  const std::string json = tracer.chrome_json();
  tracer.clear();

  const JsonValue doc = parse_json(json);
  const ParsedSpan outer = find_span(doc, "ctxtest.outer");
  const ParsedSpan inner = find_span(doc, "ctxtest.inner");
  const ParsedSpan retro = find_span(doc, "ctxtest.retro");
  ASSERT_TRUE(outer.found);
  ASSERT_TRUE(inner.found);
  ASSERT_TRUE(retro.found);
  // All three belong to the request's trace...
  EXPECT_EQ(outer.trace_id, ctx.trace_id);
  EXPECT_EQ(inner.trace_id, ctx.trace_id);
  EXPECT_EQ(retro.trace_id, ctx.trace_id);
  // ...and the parent pointers reconstruct the nesting.
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_EQ(outer.parent_span_id, 0u);  // root of the chain
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(retro.parent_span_id, inner.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
}

TEST(TraceContext, ScopedInstallRestoresThePreviousContext) {
  obs::TraceContext& ambient = obs::ambient_trace_context();
  const obs::TraceContext before = ambient;
  obs::TraceContext ctx;
  ctx.trace_id = obs::next_trace_id();
  {
    obs::ScopedTraceContext install(ctx);
    EXPECT_EQ(obs::ambient_trace_context().trace_id, ctx.trace_id);
    obs::TraceContext nested;
    nested.trace_id = obs::next_trace_id();
    {
      obs::ScopedTraceContext install2(nested);
      EXPECT_EQ(obs::ambient_trace_context().trace_id, nested.trace_id);
    }
    EXPECT_EQ(obs::ambient_trace_context().trace_id, ctx.trace_id);
  }
  EXPECT_EQ(obs::ambient_trace_context().trace_id, before.trace_id);
}

TEST(TraceContext, SpansWithoutContextCarryNoIds) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  { EVC_TRACE_SPAN("ctxtest.orphan"); }
  tracer.set_enabled(false);
  const std::string json = tracer.chrome_json();
  tracer.clear();
  const ParsedSpan orphan = find_span(parse_json(json), "ctxtest.orphan");
  ASSERT_TRUE(orphan.found);
  EXPECT_EQ(orphan.trace_id, 0u);
  EXPECT_EQ(orphan.span_id, 0u);
}

#endif  // !EVC_OBS_NO_TRACING

// --- Histogram exemplars ---

TEST(Metrics, HistogramExemplarsCarryAmbientTraceId) {
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.exemplar_ns");
  obs::TraceContext ctx;
  ctx.trace_id = 424242;
  {
    obs::ScopedTraceContext ambient(ctx);
    for (int i = 0; i < 10; ++i) reg.observe(id, 7);
  }
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  const obs::HistogramSummary& h = snap.metrics[0].histogram;
  EXPECT_EQ(h.p50, 7u);
  // Every sample landed in one bucket under one traced request, so all
  // three quantile exemplars resolve to it.
  EXPECT_EQ(h.p50_trace_id, 424242u);
  EXPECT_EQ(h.p99_trace_id, 424242u);
  // JSON export surfaces the exemplar object for traced histograms.
  EXPECT_NE(snap.to_json().find("\"exemplars\""), std::string::npos);
}

TEST(Metrics, UntracedObservationsLeaveExemplarsZero) {
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("test.plain_ns");
  for (int i = 0; i < 10; ++i) reg.observe(id, 7);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.metrics[0].histogram.p50_trace_id, 0u);
  EXPECT_EQ(snap.to_json().find("\"exemplars\""), std::string::npos);
}

TEST(Metrics, ConcurrentSnapshotWhileShardWritersRace) {
  // TSan-facing: snapshot() folds the sharded cells (counters, histogram
  // buckets, exemplars) with relaxed loads while writers keep storing.
  // Run under -fsanitize=thread this proves the fold is race-free; the
  // value assertions only need eventual completeness after join.
  obs::MetricsRegistry reg;
  const auto hits = reg.counter("race.hits");
  const auto lat = reg.histogram("race.lat_ns");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&, t] {
      obs::TraceContext ctx;
      ctx.trace_id = static_cast<std::uint64_t>(t) + 1;
      obs::ScopedTraceContext ambient(ctx);
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(hits);
        reg.observe(lat, static_cast<std::uint64_t>(i % 1000));
      }
    });
  std::thread folder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = reg.snapshot();
      ASSERT_EQ(snap.metrics.size(), 2u);
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  folder.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.metrics[0].counter,
            static_cast<std::uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(snap.metrics[1].histogram.count,
            static_cast<std::uint64_t>(kWriters) * kPerThread);
  // Exemplars come from *some* traced writer (last-writer-wins).
  EXPECT_GE(snap.metrics[1].histogram.p50_trace_id, 1u);
  EXPECT_LE(snap.metrics[1].histogram.p50_trace_id,
            static_cast<std::uint64_t>(kWriters));
}

// --- SLO burn-rate monitor ---

TEST(Slo, FiresOnSustainedBurnAndClearsWithHysteresis) {
  obs::SloRuleOptions rule;
  rule.name = "test-latency";
  rule.objective = 0.9;  // 10% error budget
  rule.fast_window = 10;
  rule.slow_window = 40;
  rule.fast_burn_threshold = 5.0;  // bad_fraction >= 0.5 in fast window
  rule.slow_burn_threshold = 2.0;  // bad_fraction >= 0.2 in slow window
  rule.clear_burn = 1.0;           // both windows back to <= 0.1
  rule.min_samples = 10;
  obs::SloMonitor monitor({rule});

  // All-good warmup: no verdicts.
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(monitor.observe(0, false).empty());
  EXPECT_FALSE(monitor.firing(0));

  // Saturate: every sample bad. Must fire exactly once.
  std::size_t fires = 0;
  for (int i = 0; i < 20; ++i) {
    for (const obs::SloAlert& a : monitor.observe(0, true, 555)) {
      EXPECT_TRUE(a.firing);
      EXPECT_EQ(a.rule, "test-latency");
      EXPECT_GE(a.fast_burn, rule.fast_burn_threshold);
      EXPECT_GE(a.slow_burn, rule.slow_burn_threshold);
      EXPECT_EQ(a.trace_id, 555u);
      ++fires;
    }
  }
  EXPECT_EQ(fires, 1u);
  EXPECT_TRUE(monitor.firing(0));
  EXPECT_TRUE(monitor.any_firing());
  EXPECT_EQ(monitor.alerts_fired(), 1u);

  // Recovery: good samples. Clears only when BOTH windows are <= clear
  // burn — the slow window (40) still holds bad samples long after the
  // fast one (10) went quiet, so no flapping.
  std::size_t clears = 0;
  std::uint64_t clear_at = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    for (const obs::SloAlert& a : monitor.observe(0, false)) {
      EXPECT_FALSE(a.firing);
      ++clears;
      clear_at = i;
    }
  }
  EXPECT_EQ(clears, 1u);
  EXPECT_FALSE(monitor.firing(0));
  // 20 bad samples must age out of the 40-window down to <= 4 (10% of 40
  // is 4 = clear_burn x budget): at least 16 good samples first.
  EXPECT_GE(clear_at, 15u);
  EXPECT_EQ(monitor.alerts_cleared(), 1u);
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_TRUE(monitor.alerts()[0].firing);
  EXPECT_FALSE(monitor.alerts()[1].firing);
}

TEST(Slo, MinSamplesGateSuppressesColdStartVerdicts) {
  obs::SloRuleOptions rule;
  rule.fast_window = 8;
  rule.slow_window = 16;
  rule.min_samples = 12;
  obs::SloMonitor monitor({rule});
  // All-bad from sample 1: burn is maximal immediately, but no verdict
  // until min_samples.
  std::size_t fired_at = 0;
  for (std::size_t i = 1; i <= 16; ++i)
    if (!monitor.observe(0, true).empty() && fired_at == 0) fired_at = i;
  EXPECT_EQ(fired_at, 12u);
}

TEST(Slo, MirrorsGaugesIntoTheRegistry) {
  obs::MetricsRegistry reg;
  obs::SloRuleOptions rule;
  rule.name = "mirror";
  rule.objective = 0.9;
  rule.fast_window = 4;
  rule.slow_window = 8;
  rule.fast_burn_threshold = 1.0;
  rule.slow_burn_threshold = 1.0;
  rule.min_samples = 4;
  obs::SloMonitor monitor({rule}, &reg);
  for (int i = 0; i < 8; ++i) monitor.observe(0, true);
  const auto snap = reg.snapshot();
  double firing_gauge = -1.0;
  std::uint64_t fired_counter = 0;
  for (const auto& m : snap.metrics) {
    if (m.name == "slo.firing{rule=mirror}") firing_gauge = m.gauge;
    if (m.name == "slo.alerts_fired") fired_counter = m.counter;
  }
  EXPECT_EQ(firing_gauge, 1.0);
  EXPECT_EQ(fired_counter, 1u);
}

TEST(Slo, RejectsInvalidRules) {
  obs::SloRuleOptions bad;
  bad.objective = 1.0;  // no error budget
  EXPECT_THROW(obs::SloMonitor{std::vector<obs::SloRuleOptions>{bad}},
               std::invalid_argument);
  obs::SloRuleOptions zero_window;
  zero_window.fast_window = 0;
  EXPECT_THROW(
      obs::SloMonitor{std::vector<obs::SloRuleOptions>{zero_window}},
      std::invalid_argument);
}

TEST(FlightRecorder, TaggedDumpCarriesTheTrigger) {
  obs::FlightRecorder rec(4);
  obs::FlightRecord r;
  r.time_s = 1.0;
  rec.record(r);
  obs::FlightRecorder::DumpTag tag;
  tag.reason = "svc.shed";
  tag.trace_id = 99;
  tag.vehicle_id = 3;
  const std::string json = rec.to_json(tag);
  const JsonValue doc = parse_json(json);
  const JsonValue* trigger = doc.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->find("reason")->as_string(), "svc.shed");
  EXPECT_EQ(trigger->find("trace_id")->as_number(), 99.0);
  EXPECT_EQ(trigger->find("vehicle_id")->as_number(), 3.0);
  // The untagged shape stays untouched (no trigger key).
  EXPECT_EQ(parse_json(rec.to_json()).find("trigger"), nullptr);
}

}  // namespace
}  // namespace evc
