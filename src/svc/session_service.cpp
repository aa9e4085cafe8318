#include "svc/session_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "util/expect.hpp"
#include "util/random.hpp"

namespace evc::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shard pinning: scramble the id (vehicle ids are often sequential, which
/// would otherwise stripe poorly) and take the remainder.
std::size_t shard_of(std::uint64_t vehicle_id, std::size_t shards) {
  std::uint64_t z = vehicle_id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>((z ^ (z >> 31)) % shards);
}

/// Exponential backoff between storage retries: base · 2^attempt, capped
/// at 2^10 so a misconfigured base cannot stall a pump for long.
void io_backoff(double base_s, std::size_t attempt) {
  if (base_s <= 0.0) return;
  const double factor =
      static_cast<double>(1ull << (attempt < 10 ? attempt : 10));
  std::this_thread::sleep_for(
      std::chrono::duration<double>(base_s * factor));
}

}  // namespace

struct SessionService::Counters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> deadline_misses{0};
  std::atomic<std::uint64_t> creates{0};
  std::atomic<std::uint64_t> restores{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> evict_retries{0};
  std::atomic<std::uint64_t> evict_failures{0};
  std::atomic<std::uint64_t> restore_retries{0};
  std::atomic<std::uint64_t> finished{0};
  std::atomic<std::uint64_t> in_memory{0};
  std::atomic<std::uint64_t> slo_fired{0};
  std::atomic<std::uint64_t> slo_cleared{0};
  std::atomic<std::uint64_t> flight_dumps{0};
};

struct SessionService::MetricIds {
  obs::MetricsRegistry::Id admit;
  obs::MetricsRegistry::Id reject;
  obs::MetricsRegistry::Id shed;
  obs::MetricsRegistry::Id step;
  obs::MetricsRegistry::Id deadline_miss;
  obs::MetricsRegistry::Id create;
  obs::MetricsRegistry::Id restore;
  obs::MetricsRegistry::Id evict;
  obs::MetricsRegistry::Id evict_retry;
  obs::MetricsRegistry::Id restore_retry;
  obs::MetricsRegistry::Id step_ns;
  obs::MetricsRegistry::Id queue_wait_ns;
  obs::MetricsRegistry::Id flight_dump;
  /// Labeled families: svc.step_tier{tier=N}, svc.queue_depth{shard=N}
  /// (the exporter translates the brace suffix into Prometheus labels).
  std::vector<obs::MetricsRegistry::Id> step_tier;
  std::vector<obs::MetricsRegistry::Id> queue_depth;
};

SessionService::SessionService(core::EvParams params,
                               const drive::DriveProfile& profile,
                               ServiceOptions options, rt::ThreadPool& pool)
    : params_(params), profile_(profile), options_(std::move(options)),
      pool_(pool), store_(options_.store), governor_(options_.governor),
      counters_(std::make_unique<Counters>()) {
  EVC_EXPECT(options_.shards >= 1, "service needs at least one shard");
  EVC_EXPECT(options_.queue_capacity >= 1,
             "service queue capacity must be >= 1");
  EVC_EXPECT(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
             "ewma_alpha outside (0, 1]");
  EVC_EXPECT(options_.deadline_safety >= 1.0,
             "deadline_safety must be >= 1");

  auto& reg = obs::MetricsRegistry::global();
  metric_ids_ = std::make_unique<MetricIds>();
  metric_ids_->admit = reg.counter("svc.admit");
  metric_ids_->reject = reg.counter("svc.reject");
  metric_ids_->shed = reg.counter("svc.shed");
  metric_ids_->step = reg.counter("svc.step");
  metric_ids_->deadline_miss = reg.counter("svc.deadline_miss");
  metric_ids_->create = reg.counter("svc.create");
  metric_ids_->restore = reg.counter("svc.restore");
  metric_ids_->evict = reg.counter("svc.evict");
  metric_ids_->evict_retry = reg.counter("svc.evict_retry");
  metric_ids_->restore_retry = reg.counter("svc.restore_retry");
  // svc.step_ns is pure service time; the queue wait it used to include is
  // its own histogram so backlog and slow steps are distinguishable.
  metric_ids_->step_ns = reg.histogram("svc.step_ns");
  metric_ids_->queue_wait_ns = reg.histogram("svc.queue_wait_ns");
  metric_ids_->flight_dump = reg.counter("svc.flight_dump");
  metric_ids_->queue_depth.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i)
    metric_ids_->queue_depth.push_back(
        reg.gauge("svc.queue_depth{shard=" + std::to_string(i) + "}"));

  motor_power_cache_ = core::precompute_motor_power(params_, profile_);

  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->controller = core::make_supervised_mpc_controller(
        params_, options_.mpc, options_.supervisor);
    if (num_tiers_ == 0) num_tiers_ = shard->controller->num_tiers();
    shard->tier_cost_ewma_s.assign(num_tiers_, 0.0);
    if (!options_.flight_dump_dir.empty())
      shard->last_flight = std::make_unique<obs::FlightRecorder>(
          options_.flight_recorder_capacity);
    shards_.push_back(std::move(shard));
  }

  metric_ids_->step_tier.reserve(num_tiers_);
  for (std::size_t t = 0; t < num_tiers_; ++t)
    metric_ids_->step_tier.push_back(
        reg.counter("svc.step_tier{tier=" + std::to_string(t) + "}"));

  if (options_.slo.enabled) {
    slo_latency_threshold_s_ = options_.slo.latency_threshold_s > 0.0
                                   ? options_.slo.latency_threshold_s
                                   : options_.governor.slo_p99_s;
    // Rule order defines kSloLatencyRule / kSloErrorRule.
    slo_ = std::make_unique<obs::SloMonitor>(
        std::vector<obs::SloRuleOptions>{options_.slo.latency_rule,
                                         options_.slo.error_rule},
        &reg);
  }
}

SessionService::~SessionService() {
  stopping_.store(true, std::memory_order_release);
  quiesce_barrier();
  drain();
}

/// Walk every shard mutex once. On return, any submit_step() critical
/// section that read stopping_/quiescing_ as false has finished (we could
/// not have acquired its mutex otherwise), and any later critical section
/// on that mutex observes the flag as true (the store is sequenced before
/// our acquire, whose release synchronizes-with the later acquire). So:
/// flag store + barrier + drain() == no pump running and none schedulable.
void SessionService::quiesce_barrier() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
  }
}

void SessionService::reject(Request& request) {
  counters_->rejected.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().add(metric_ids_->reject);
  StepResult result;
  result.status = StepStatus::kRejected;
  result.retry_after_s = options_.retry_after_s;
  request.promise.set_value(result);
}

std::future<StepResult> SessionService::submit_step(std::uint64_t vehicle_id,
                                                    double deadline_s) {
  const std::uint64_t seq =
      counters_->submitted.fetch_add(1, std::memory_order_relaxed) + 1;
  Request request;
  request.vehicle_id = vehicle_id;
  request.deadline = rt::Deadline::from_budget_s(deadline_s);
  request.enqueue_tp = Clock::now();
  std::future<StepResult> future = request.promise.get_future();

  // Root of the request's causal chain: allocate a TraceContext, install
  // it so the svc.submit admission span (and anything it calls) links to
  // it, and stash it in the request — the pump re-installs it on the
  // worker thread, stitching queue handoff and execution into one trace.
#if !defined(EVC_OBS_NO_TRACING)
  auto& tracer = obs::Tracer::global();
  obs::TraceContext ctx;
  if (tracer.enabled()) {
    ctx.trace_id = obs::next_trace_id();
    ctx.vehicle_id = vehicle_id;
    ctx.request_seq = seq;
  }
  obs::ScopedTraceContext ambient(ctx);
#else
  (void)seq;
#endif
  EVC_TRACE_SPAN_VAR(submit_span, "svc.submit");
#if !defined(EVC_OBS_NO_TRACING)
  if (ctx.active()) {
    submit_span.arg("vehicle", static_cast<double>(vehicle_id));
    // Captures svc.submit as parent: queue wait + execution nest under it.
    request.trace = obs::ambient_trace_context();
    request.enqueue_trace_ns = tracer.now_ns();
  }
#endif

  const std::size_t index = shard_of(vehicle_id, shards_.size());
  Shard& shard = *shards_[index];
  bool schedule = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (stopping_.load(std::memory_order_acquire) ||
        quiescing_.load(std::memory_order_acquire) ||
        shard.queue.size() >= options_.queue_capacity) {
      reject(request);
      return future;
    }
    shard.queue.push_back(std::move(request));
    depth = shard.queue.size();
    counters_->admitted.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global().add(metric_ids_->admit);
    if (!shard.pump_scheduled) {
      shard.pump_scheduled = true;
      schedule = true;
    }
  }
  obs::MetricsRegistry::global().set(metric_ids_->queue_depth[index],
                                     static_cast<double>(depth));
  if (schedule) pool_.submit([this, index] { pump(index); });
  return future;
}

void SessionService::pump(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // One pump per shard at a time (the pump_scheduled handoff), so all
  // pump-only shard state below is accessed race-free. Yield the pool
  // worker back every kBatch requests so one hot shard cannot monopolize
  // it — unless we are stopping, when requests drain as cheap rejections.
  constexpr std::size_t kBatch = 16;
  std::size_t served = 0;
  for (;;) {
    Request request;
    bool have_request = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (!shard.queue.empty()) {
        if (served >= kBatch && !stopping_.load(std::memory_order_acquire)) {
          pool_.submit([this, shard_index] { pump(shard_index); });
          return;
        }
        request = std::move(shard.queue.front());
        shard.queue.pop_front();
        depth = shard.queue.size();
        have_request = true;
      }
    }
    if (have_request) {
      obs::MetricsRegistry::global().set(
          metric_ids_->queue_depth[shard_index], static_cast<double>(depth));
      process(shard, request);
      ++served;
      continue;
    }
    // Queue drained: hand the shard back idle. pump_scheduled must flip
    // to false under idle_mutex_ — if it flipped before idle_mutex_ was
    // held, drain()'s predicate could pass on another shard's notify (or
    // a spurious wakeup) and the service be destroyed while this thread
    // was still about to touch idle_mutex_/idle_cv_. Held together, the
    // flip and the notify are one atomic step as seen by drain(), whose
    // waiter cannot re-acquire idle_mutex_ (and so cannot return) before
    // we release it — and past that release this function touches no
    // service member. Lock order idle_mutex_ → shard.mutex matches
    // drain()'s predicate. The queue is re-checked because a submit may
    // have slipped in (seeing pump_scheduled still true) since we last
    // saw it empty; flipping the flag then would strand that request.
    std::unique_lock<std::mutex> idle_lock(idle_mutex_);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.queue.empty()) continue;
    shard.pump_scheduled = false;
    idle_cv_.notify_all();
    return;
  }
}

void SessionService::process(Shard& shard, Request& request) {
  if (stopping_.load(std::memory_order_acquire)) {
    reject(request);
    return;
  }
#if !defined(EVC_OBS_NO_TRACING)
  // Re-install the request's context on this worker thread: everything
  // below (hydrate, solver spans, persist fsyncs) links under the
  // svc.submit root even though it runs on a different thread. The queue
  // wait itself becomes a retroactive span covering submit → now.
  obs::ScopedTraceContext ambient(request.trace);
  if (request.trace.active()) {
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      const std::uint64_t now = tracer.now_ns();
      const std::uint64_t start = request.enqueue_trace_ns;
      tracer.record_span("svc.queue_wait", start,
                         now > start ? now - start : 0, "vehicle",
                         static_cast<double>(request.vehicle_id));
    }
  }
#endif
  try {
    request.promise.set_value(execute(shard, request));
  } catch (...) {
    request.promise.set_exception(std::current_exception());
  }
}

std::size_t SessionService::pick_tier_floor(const Shard& shard,
                                            std::size_t governor_floor,
                                            double remaining_s) const {
  const std::size_t floor = std::min(governor_floor, num_tiers_ - 1);
  if (!std::isfinite(remaining_s)) return floor;  // no deadline
  // Cheapest acceptable tier: start at the governor's floor and keep
  // demoting until the smoothed cost (× safety) fits what is left of the
  // deadline. Unsampled tiers cost the configured prior (0 = optimistic).
  for (std::size_t tier = floor; tier < num_tiers_; ++tier) {
    const double ewma = shard.tier_cost_ewma_s[tier];
    const double cost = ewma == 0.0 ? options_.unsampled_tier_cost_s : ewma;
    if (cost * options_.deadline_safety <= remaining_s) return tier;
  }
  return num_tiers_;  // sentinel: not even safe-hold fits → shed
}

StepResult SessionService::execute(Shard& shard, const Request& request) {
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t vehicle = request.vehicle_id;
  auto& reg = obs::MetricsRegistry::global();
  StepResult result;
  result.trace_id = request.trace.trace_id;

  // Queue wait is its own histogram (it used to hide inside svc.step_ns):
  // recorded for every outcome, shed and finished included, because a
  // saturated queue delays those exactly the same way.
  const double queue_wait_s = std::chrono::duration<double>(
                                  t0 - request.enqueue_tp).count();
  reg.observe(metric_ids_->queue_wait_ns,
              static_cast<std::uint64_t>(
                  (queue_wait_s > 0.0 ? queue_wait_s : 0.0) * 1e9));

  // A vehicle that already ran its whole profile stays finished. Without
  // this check the next request would recreate it at its deterministic
  // step-0 state (its store entry was retired) and silently restart the
  // session, double-counting svc.create and skewing tracked_sessions().
  if (shard.finished.count(vehicle) != 0) {
    result.status = StepStatus::kFinished;
    return result;
  }

  // Deadline-aware scheduling: shed now rather than miss later. The
  // governor floor and the budget are read once, so the svc.step args
  // record exactly what the choice saw (budget −1: no deadline).
  const std::size_t governor_floor = governor_.floor();
  const double remaining_s = request.deadline.remaining_s();
  const double budget_s = std::isfinite(remaining_s) ? remaining_s : -1.0;
  const std::size_t floor =
      pick_tier_floor(shard, governor_floor, remaining_s);
  if (floor >= num_tiers_) {
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
    reg.add(metric_ids_->shed);
    EVC_TRACE_INSTANT("svc.shed", budget_s);
    result.status = StepStatus::kShed;
    result.retry_after_s = options_.retry_after_s;
    // A shed burns error budget and is worth a black-box dump: the
    // shard's recent flight history shows what kept the tiers expensive.
    note_slo(shard, kSloErrorRule, true, request.trace.trace_id, vehicle);
    if (slo_latency_threshold_s_ > 0.0 && slo_)
      note_slo(shard, kSloLatencyRule,
               queue_wait_s > slo_latency_threshold_s_,
               request.trace.trace_id, vehicle);
    dump_flight(shard, "svc.shed", request.trace.trace_id, vehicle);
    return result;
  }
  result.tier_floor = floor;

  // Hydrate: everything between "request picked up" and "session ready to
  // step" — blob fetch (memory or store), session construction, restore.
  EVC_TRACE_SPAN_VAR(hydrate_span, "svc.hydrate");

  // Blob from memory, else from the store, else a fresh session. A
  // resident blob is restored in place, not copied.
  const std::string* blob = nullptr;
  std::optional<std::string> loaded;
  auto it = shard.resident.find(vehicle);
  if (it != shard.resident.end()) {
    blob = &it->second.blob;
  } else {
    EVC_TRACE_SPAN_VAR(restore_span, "svc.restore");
    // Bounded retry on retryable storage failures only. Corruption never
    // surfaces here: the store quarantines the damaged generation and
    // salvages .prev internally; a session whose every generation is bad
    // comes back as nullopt and is recreated at step-0 below.
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        loaded = store_.load(vehicle);
        break;
      } catch (const sim::CheckpointIoError&) {
        if (attempt >= options_.restore_retries) throw;
        counters_->restore_retries.fetch_add(1, std::memory_order_relaxed);
        reg.add(metric_ids_->restore_retry);
        io_backoff(options_.io_backoff_s, attempt);
      }
    }
    if (loaded) {
      blob = &*loaded;
      result.restored_from_disk = true;
      counters_->restores.fetch_add(1, std::memory_order_relaxed);
      reg.add(metric_ids_->restore);
      restore_span.arg("vehicle", static_cast<double>(vehicle));
    }
  }

  // Per-vehicle deterministic initial conditions. The stream is keyed by
  // vehicle id only, never by shard or thread, so a killed-and-restarted
  // service recreates the identical step-0 state. That is what makes
  // "never persisted" recoverable.
  SplitMix64 rng(options_.seed +
                 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(vehicle));
  core::SimulationOptions sim_opts;
  sim_opts.initial_soc_percent = rng.uniform(
      options_.min_initial_soc_percent, options_.max_initial_soc_percent);
  sim_opts.initial_cabin_temp_c = rng.uniform(
      options_.min_initial_cabin_temp_c, options_.max_initial_cabin_temp_c);
  sim_opts.forecast_horizon_s = options_.forecast_horizon_s;
  sim_opts.record_traces = options_.record_traces;
  sim_opts.flight_recorder_capacity = options_.flight_recorder_capacity;
  sim_opts.motor_power_cache = &motor_power_cache_;
  std::optional<sim::FaultInjector> injector;
  if (!options_.fault_specs.empty()) {
    injector.emplace(options_.fault_specs,
                     options_.seed ^ (0xD1B54A32D192ED03ull * vehicle));
    sim_opts.fault_injector = &*injector;
  }

  core::SimulationSession session(params_, *shard.controller, profile_,
                                  sim_opts);
  if (blob != nullptr) {
    session.restore(*blob);
  } else {
    result.created = true;
    counters_->creates.fetch_add(1, std::memory_order_relaxed);
    reg.add(metric_ids_->create);
  }
  hydrate_span.arg("restored", blob != nullptr ? 1.0 : 0.0);
  // The floor in force wins over whatever floor the checkpoint carried.
  shard.controller->set_tier_floor(floor);

  if (session.done()) {
    result.status = StepStatus::kFinished;
    result.step_index = session.step_index();
    result.cabin_temp_c = session.cabin_temp_c();
    result.soc_percent = session.soc_percent();
    if (it != shard.resident.end()) {
      shard.lru.erase(it->second.lru_it);
      shard.resident.erase(it);
      counters_->in_memory.fetch_sub(1, std::memory_order_relaxed);
    }
    store_.retire(vehicle);
    shard.finished.insert(vehicle);
    counters_->finished.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  result.step_index = session.step_index();
  double advance_s = 0.0;
  {
    EVC_TRACE_SPAN_VAR(step_span, "svc.step");
    const Clock::time_point t_advance = Clock::now();
    session.advance();
    advance_s = seconds_since(t_advance);
    step_span.arg(
        "tier", static_cast<double>(shard.controller->last_applied_tier()));
    step_span.arg("floor", static_cast<double>(floor));
    step_span.arg("governor_floor", static_cast<double>(governor_floor));
    step_span.arg("budget_s", budget_s);
  }
  result.status = StepStatus::kOk;
  result.applied_tier = shard.controller->last_applied_tier();
  result.cabin_temp_c = session.cabin_temp_c();
  result.soc_percent = session.soc_percent();
  result.hvac_power_w = session.last_hvac_power_w();
  if (result.applied_tier < metric_ids_->step_tier.size())
    reg.add(metric_ids_->step_tier[result.applied_tier]);
  // Keep the shard's black box current: a later shed or SLO alert dumps
  // the history of the last executed step, not an empty ring.
  if (shard.last_flight) *shard.last_flight = session.flight_recorder();

  if (it != shard.resident.end()) {
    it->second.blob = session.checkpoint();
    it->second.step = session.step_index();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  } else {
    shard.lru.push_front(vehicle);
    Resident resident;
    resident.blob = session.checkpoint();
    resident.step = session.step_index();
    resident.lru_it = shard.lru.begin();
    shard.resident.emplace(vehicle, std::move(resident));
    counters_->in_memory.fetch_add(1, std::memory_order_relaxed);
  }
  evict_overflow(shard);

  const double elapsed_s = seconds_since(t0);
  counters_->steps.fetch_add(1, std::memory_order_relaxed);
  reg.add(metric_ids_->step);
  reg.observe(metric_ids_->step_ns,
              static_cast<std::uint64_t>(elapsed_s * 1e9));
  governor_.observe_s(elapsed_s);
  // The tier-cost estimate is charged only the controller step: the full
  // elapsed_s also covers checkpoint restore/encode and eviction fsyncs,
  // so one storage stall would inflate a tier's EWMA (× deadline_safety)
  // and over-shed later requests whose compute easily fits. The governor,
  // the svc.step_ns histogram, and the deadline-miss check keep the total
  // — externally the SLO is about request latency, storage included.
  double& ewma = shard.tier_cost_ewma_s[result.applied_tier];
  ewma = ewma == 0.0 ? advance_s
                     : ewma + options_.ewma_alpha * (advance_s - ewma);
  if (request.deadline.expired()) {
    result.deadline_missed = true;
    counters_->deadline_misses.fetch_add(1, std::memory_order_relaxed);
    reg.add(metric_ids_->deadline_miss);
  }
  // SLO observations: latency rule sees end-to-end (queue wait + service),
  // the error rule the admitted-yet-late budget. Observing never touches
  // scheduling — byte-identical control output with the monitor on.
  if (slo_latency_threshold_s_ > 0.0)
    note_slo(shard, kSloLatencyRule,
             queue_wait_s + elapsed_s > slo_latency_threshold_s_,
             request.trace.trace_id, vehicle);
  note_slo(shard, kSloErrorRule, result.deadline_missed,
           request.trace.trace_id, vehicle);
  return result;
}

void SessionService::note_slo(Shard& shard, std::size_t rule, bool bad,
                              std::uint64_t trace_id,
                              std::uint64_t vehicle_id) {
  if (!slo_) return;
  const std::vector<obs::SloAlert> transitions =
      slo_->observe(rule, bad, trace_id);
  if (transitions.empty()) return;
  const std::size_t demotions = governor_.stats().demotions;
  {
    std::lock_guard<std::mutex> lock(slo_events_mutex_);
    for (const obs::SloAlert& alert : transitions)
      slo_events_.push_back(SloEvent{alert, demotions});
  }
  for (const obs::SloAlert& alert : transitions) {
    if (alert.firing) {
      counters_->slo_fired.fetch_add(1, std::memory_order_relaxed);
      dump_flight(shard, "slo.alert",
                  alert.trace_id != 0 ? alert.trace_id : trace_id,
                  vehicle_id);
    } else {
      counters_->slo_cleared.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SessionService::dump_flight(Shard& shard, const char* reason,
                                 std::uint64_t trace_id,
                                 std::uint64_t vehicle_id) {
  if (options_.flight_dump_dir.empty()) return;
  if (!shard.last_flight || shard.last_flight->size() == 0) return;
  const std::uint64_t n =
      counters_->flight_dumps.fetch_add(1, std::memory_order_relaxed);
  std::string name(reason);
  for (char& c : name)
    if (c == '.') c = '-';
  const std::string path = options_.flight_dump_dir + "/flight_" + name +
                           "_" + std::to_string(n) + ".json";
  obs::FlightRecorder::DumpTag tag;
  tag.reason = reason;
  tag.trace_id = trace_id;
  tag.vehicle_id = vehicle_id;
  if (shard.last_flight->dump_json(path, tag))
    obs::MetricsRegistry::global().add(metric_ids_->flight_dump);
}

std::vector<SessionService::SloEvent> SessionService::slo_events() const {
  std::lock_guard<std::mutex> lock(slo_events_mutex_);
  return slo_events_;
}

bool SessionService::slo_firing() const {
  return slo_ != nullptr && slo_->any_firing();
}

void SessionService::evict_overflow(Shard& shard) {
  auto& reg = obs::MetricsRegistry::global();
  while (shard.resident.size() > options_.resident_per_shard) {
    const std::uint64_t victim = shard.lru.back();
    auto it = shard.resident.find(victim);
    EVC_TRACE_SPAN_VAR(evict_span, "svc.evict");
    evict_span.arg("vehicle", static_cast<double>(victim));
    bool persisted = false;
    for (std::size_t attempt = 0; attempt <= options_.evict_retries;
         ++attempt) {
      try {
        store_.persist(victim, it->second.step, it->second.blob);
        persisted = true;
        break;
      } catch (const sim::CheckpointIoError&) {
        // Storage hiccup: retry. Corruption (SerializationError) is not
        // retryable and propagates.
        counters_->evict_retries.fetch_add(1, std::memory_order_relaxed);
        reg.add(metric_ids_->evict_retry);
        if (attempt < options_.evict_retries)
          io_backoff(options_.io_backoff_s, attempt);
      }
    }
    if (!persisted) {
      // Losing state to a flaky disk is worse than holding memory: keep
      // the session resident, rotate it off the eviction end so the next
      // overflow tries a different victim, and give up for this round.
      counters_->evict_failures.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return;
    }
    shard.lru.pop_back();
    shard.resident.erase(it);
    counters_->in_memory.fetch_sub(1, std::memory_order_relaxed);
    counters_->evictions.fetch_add(1, std::memory_order_relaxed);
    reg.add(metric_ids_->evict);
  }
}

void SessionService::drain() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [&] {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard->mutex);
      if (shard->pump_scheduled || !shard->queue.empty()) return false;
    }
    return true;
  });
}

void SessionService::persist_all() {
  // Quiesce first: the sweep below mutates pump-only shard state
  // (resident/lru), which pumps access without shard.mutex by the
  // single-pump invariant — so no pump may run or become schedulable
  // while we sweep. The flag makes submit_step reject, the barrier
  // ensures every in-flight submit has either enqueued (drained next) or
  // will observe the flag, and drain() waits out the pumps already
  // running. Requests arriving meanwhile get kRejected + retry_after_s.
  quiescing_.store(true, std::memory_order_release);
  quiesce_barrier();
  drain();
  auto& reg = obs::MetricsRegistry::global();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    while (!shard.lru.empty()) {
      const std::uint64_t victim = shard.lru.back();
      auto it = shard.resident.find(victim);
      store_.persist(victim, it->second.step, it->second.blob);
      shard.lru.pop_back();
      shard.resident.erase(it);
      counters_->in_memory.fetch_sub(1, std::memory_order_relaxed);
      counters_->evictions.fetch_add(1, std::memory_order_relaxed);
      reg.add(metric_ids_->evict);
    }
  }
  store_.flush();
  quiescing_.store(false, std::memory_order_release);
}

std::size_t SessionService::tracked_sessions() const {
  return static_cast<std::size_t>(
      counters_->creates.load(std::memory_order_relaxed) +
      recovered_sessions() -
      counters_->finished.load(std::memory_order_relaxed));
}

ServiceStats SessionService::stats() const {
  ServiceStats s;
  s.submitted = counters_->submitted.load(std::memory_order_relaxed);
  s.admitted = counters_->admitted.load(std::memory_order_relaxed);
  s.rejected = counters_->rejected.load(std::memory_order_relaxed);
  s.shed = counters_->shed.load(std::memory_order_relaxed);
  s.steps = counters_->steps.load(std::memory_order_relaxed);
  s.deadline_misses =
      counters_->deadline_misses.load(std::memory_order_relaxed);
  s.creates = counters_->creates.load(std::memory_order_relaxed);
  s.restores = counters_->restores.load(std::memory_order_relaxed);
  s.evictions = counters_->evictions.load(std::memory_order_relaxed);
  s.evict_retries = counters_->evict_retries.load(std::memory_order_relaxed);
  s.evict_failures =
      counters_->evict_failures.load(std::memory_order_relaxed);
  s.restore_retries =
      counters_->restore_retries.load(std::memory_order_relaxed);
  s.finished = counters_->finished.load(std::memory_order_relaxed);
  s.in_memory = counters_->in_memory.load(std::memory_order_relaxed);
  s.slo_alerts_fired = counters_->slo_fired.load(std::memory_order_relaxed);
  s.slo_alerts_cleared =
      counters_->slo_cleared.load(std::memory_order_relaxed);
  s.flight_dumps = counters_->flight_dumps.load(std::memory_order_relaxed);
  return s;
}

}  // namespace evc::svc
