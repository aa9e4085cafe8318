// Overload-robust multi-tenant climate service.
//
// Long-lived per-vehicle simulation sessions behind an async step-request
// API, sharded across the shared-queue rt::ThreadPool. Each vehicle id is
// pinned to one shard (hash), and each shard runs at most one *pump* task
// at a time, so per-vehicle step order is serialized without per-session
// locks. The service composes the robustness pieces grown by earlier PRs:
//
//   admission    bounded per-shard queues; a full queue rejects the
//                request immediately with a retry-after hint instead of
//                queueing unbounded work (StepStatus::kRejected);
//   shedding     every request carries a deadline (rt::Deadline). At
//                service time the scheduler picks the cheapest supervisor
//                tier whose smoothed cost fits the remaining budget; if
//                not even the deepest tier fits, the request is shed
//                (StepStatus::kShed) rather than admitted-then-missed —
//                an admitted request that still finishes late is counted
//                as a deadline miss, and the soak bench asserts zero;
//   degradation  a LoadGovernor watches the step-latency p99 against the
//                SLO and raises/lowers a global tier floor fed into
//                ctl::SupervisedController::set_tier_floor() — full MPC →
//                relaxed → PID → On/Off under load, hysteretic recovery;
//   eviction     per-shard LRU of hydrated session blobs; overflowing
//                sessions are persisted to the SessionStore (typed-error
//                retry on flaky storage) and transparently restored on
//                their next request;
//   recovery     the store's write-ahead manifest makes a killed service
//                restartable: evicted/persisted sessions resume from
//                their checkpoint byte-identically, never-persisted ones
//                are recreated at their deterministic step-0 state — in
//                both cases re-driven steps replay bit-exactly.
//
// Memory model ("hydrate on step"): a resident session is just its
// checkpoint blob. Each shard owns one long-lived SupervisedController
// (the expensive object: QP workspaces, warm starts); serving a request
// constructs a fresh core::SimulationSession over that controller (the
// constructor resets it), restores the blob, advances one step, and
// re-checkpoints. 100k sessions therefore cost 100k blobs, not 100k MPC
// controllers, and the checkpoint round trip doubles as a continuous
// proof that restore is lossless. A request pays for that round trip
// about what the step itself costs: the resident blob is restored in
// place, the session reads the service's shared motor-power trace, and
// the codec and envelope checksum run at memory speed. A hold step at
// step 40 of ECE_EUDC (7 KB blob) costs about 7.5 us in all: 1.9 us
// session construction, 2.2 us restore, 0.9 us step, 2.3 us checkpoint
// (4-vCPU KVM guest; BM_SessionRoundTrip in bench_micro_optim). The blob
// grows by 18 bytes per step driven (the cabin and SoC traces), and the
// round trip with it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "control/supervisor.hpp"
#include "core/ev_model.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/drive_profile.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace_context.hpp"
#include "runtime/deadline.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/fault_injection.hpp"
#include "svc/governor.hpp"
#include "svc/session_store.hpp"

namespace evc::svc {

/// Burn-rate SLO monitoring of the service's own request stream
/// (obs::SloMonitor). Two rules: "latency" watches end-to-end request
/// latency (queue wait + service time) against a threshold, "errors"
/// watches the shed + deadline-miss budget. Disabled by default; the
/// monitor observes outcomes only and never influences scheduling, so
/// enabling it keeps control output byte-identical.
struct ServiceSloOptions {
  bool enabled = false;
  /// Latency-rule threshold (s); 0 inherits governor.slo_p99_s.
  double latency_threshold_s = 0.0;
  /// Window/burn configuration. Defaults detect a saturated burst within
  /// ~16 requests — ahead of the governor's min_samples cold-start guard,
  /// which is the point: alert *before* degradation kicks in.
  obs::SloRuleOptions latency_rule{
      "svc-latency", 0.99, 16, 128, 10.0, 2.0, 1.0, 0};
  obs::SloRuleOptions error_rule{
      "svc-errors", 0.999, 32, 256, 14.4, 6.0, 1.0, 0};
};

struct ServiceOptions {
  /// Worker shards; vehicle ids are pinned by hash. Each shard owns one
  /// supervised controller and one bounded queue.
  std::size_t shards = 4;
  /// Per-shard queue bound; a full queue rejects at submit.
  std::size_t queue_capacity = 128;
  /// Per-shard cap on hydrated (in-memory) session blobs; LRU overflow is
  /// evicted to the store.
  std::size_t resident_per_shard = 1024;
  /// Deadline applied when submit_step() is called without one (s);
  /// 0 = no deadline.
  double default_deadline_s = 0.0;
  /// Retry hint returned with kRejected/kShed (s).
  double retry_after_s = 0.005;
  /// A tier fits a deadline when ewma_cost · deadline_safety ≤ remaining.
  double deadline_safety = 3.0;
  /// Smoothing of the per-tier step-cost estimate.
  double ewma_alpha = 0.2;
  /// Assumed cost of a tier with no latency sample yet (s). 0 keeps the
  /// optimistic default (an unsampled tier always fits the deadline); a
  /// pessimistic prior makes the scheduler shed rather than gamble an
  /// unsampled tier against a tight deadline, which is what lets the soak
  /// bench promise *zero* misses for admitted requests.
  double unsampled_tier_cost_s = 0.0;
  /// Storage eviction retries on sim::CheckpointIoError before the
  /// session is kept resident instead.
  std::size_t evict_retries = 3;
  /// Storage restore retries on sim::CheckpointIoError before the failure
  /// propagates to the requester. Corruption never reaches this policy:
  /// the store quarantines/salvages internally and a drop comes back as
  /// "unknown vehicle" (recreated at deterministic step-0 state).
  std::size_t restore_retries = 3;
  /// Base delay between storage retries (s), doubled per attempt;
  /// 0 = retry immediately. Applies to both evict and restore retries.
  double io_backoff_s = 0.0005;
  /// Seed of the per-vehicle initial-condition stream (keyed by vehicle
  /// id only, never by shard or thread, so restarts are deterministic).
  std::uint64_t seed = 2024;
  double min_initial_soc_percent = 60.0;
  double max_initial_soc_percent = 95.0;
  double min_initial_cabin_temp_c = 28.0;
  double max_initial_cabin_temp_c = 40.0;
  /// Controller chain configuration (full MPC → relaxed → PID → On/Off).
  core::MpcOptions mpc;
  ctl::SupervisorOptions supervisor;
  /// p99-vs-SLO degradation governor; slo_p99_s = 0 disables.
  GovernorOptions governor;
  /// Checkpoint + manifest storage.
  SessionStoreOptions store;
  /// Per-vehicle fault injection (empty = clean sensors); streams are
  /// seeded per vehicle and live inside the session checkpoint.
  std::vector<sim::FaultSpec> fault_specs;
  double forecast_horizon_s = 120.0;
  /// Flight-recorder ring per session — part of every blob, keep small.
  std::size_t flight_recorder_capacity = 32;
  /// Full trace recording bloats blobs; off by default for service use.
  bool record_traces = false;
  /// SLO burn-rate monitoring of the request stream; off by default.
  ServiceSloOptions slo;
  /// When non-empty, the service dumps the triggering shard's most recent
  /// flight ring here (JSON, tagged with reason + trace id) on svc.shed
  /// and on SLO alert fires — not only on supervisor demotion. Empty =
  /// off (no per-step ring copies either).
  std::string flight_dump_dir;
};

enum class StepStatus : std::uint8_t {
  kOk,        ///< step executed
  kRejected,  ///< admission: queue full, service quiescing in
              ///< persist_all(), or stopping (retry after retry_after_s)
  kShed,      ///< scheduling: no tier fits the remaining deadline
  kFinished,  ///< session already ran its whole profile; further requests
              ///< for the vehicle keep returning kFinished for the life of
              ///< this service instance (a *restarted* service has no
              ///< record of it — the manifest entry was retired — and
              ///< recreates the vehicle at its deterministic step-0 state)
};

struct StepResult {
  StepStatus status = StepStatus::kRejected;
  double retry_after_s = 0.0;       ///< kRejected/kShed
  std::uint64_t step_index = 0;     ///< index of the step just executed
  bool restored_from_disk = false;  ///< hydrated from the store
  bool created = false;             ///< first request for this vehicle
  bool deadline_missed = false;     ///< admitted but finished past deadline
  std::size_t applied_tier = 0;     ///< supervisor tier that actuated
  std::size_t tier_floor = 0;       ///< floor in force for this step
  double cabin_temp_c = 0.0;
  double soc_percent = 0.0;
  double hvac_power_w = 0.0;
  /// Causal trace id of this request (0 when the tracer was disabled at
  /// submit); grep it in the EVC_TRACE export or a histogram exemplar.
  std::uint64_t trace_id = 0;
};

/// Monotonic counters; a snapshot is cheap and consistent-enough (relaxed).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        ///< queue-full rejections
  std::uint64_t shed = 0;            ///< deadline-aware sheds
  std::uint64_t steps = 0;
  std::uint64_t deadline_misses = 0; ///< admitted yet late (should be 0)
  std::uint64_t creates = 0;
  std::uint64_t restores = 0;
  std::uint64_t evictions = 0;
  std::uint64_t evict_retries = 0;
  std::uint64_t evict_failures = 0;  ///< kept resident after retries ran out
  std::uint64_t restore_retries = 0; ///< store loads retried on IoError
  std::uint64_t finished = 0;
  std::uint64_t in_memory = 0;       ///< hydrated blobs right now
  std::uint64_t slo_alerts_fired = 0;
  std::uint64_t slo_alerts_cleared = 0;
  std::uint64_t flight_dumps = 0;    ///< shed/alert-triggered dumps written
};

class SessionService {
 public:
  /// `profile` is borrowed read-only and must outlive the service. The
  /// constructor replays the store's manifest; previously persisted
  /// sessions restore transparently on their next request.
  SessionService(core::EvParams params, const drive::DriveProfile& profile,
                 ServiceOptions options, rt::ThreadPool& pool);
  /// Destruction is a *crash* as far as persistence goes: pending requests
  /// are rejected, in-flight pumps finish, nothing is evicted. Call
  /// persist_all() first for a graceful shutdown.
  ~SessionService();
  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  /// Async one-step request with an explicit deadline (0 = none). The
  /// returned future is already resolved for admission rejections.
  std::future<StepResult> submit_step(std::uint64_t vehicle_id,
                                      double deadline_s);
  std::future<StepResult> submit_step(std::uint64_t vehicle_id) {
    return submit_step(vehicle_id, options_.default_deadline_s);
  }

  /// Block until every queue is empty and every pump is idle.
  void drain();
  /// Graceful shutdown: quiesce (submits arriving while this runs are
  /// rejected with retry_after_s), drain in-flight work, evict every
  /// hydrated session to the store, flush the manifest, then accept
  /// traffic again. The quiesce step is what makes the resident sweep
  /// safe against concurrent submit_step() callers.
  void persist_all();

  /// Sessions recovered from the manifest at construction.
  std::size_t recovered_sessions() const {
    return store_.recovered().size();
  }
  /// Sessions this service knows about (hydrated + persisted).
  std::size_t tracked_sessions() const;

  ServiceStats stats() const;
  GovernorStats governor_stats() const { return governor_.stats(); }

  /// One SLO transition plus where the governor stood when it happened —
  /// the soak bench asserts fires land *before* the first demotion.
  struct SloEvent {
    obs::SloAlert alert;
    std::size_t governor_demotions = 0;  ///< at transition time
  };
  /// All transitions so far, oldest first (empty when slo.enabled=false).
  std::vector<SloEvent> slo_events() const;
  /// True while any SLO rule is firing.
  bool slo_firing() const;
  /// Rule indices into the monitor (submission order).
  static constexpr std::size_t kSloLatencyRule = 0;
  static constexpr std::size_t kSloErrorRule = 1;
  const SessionStore& store() const { return store_; }
  /// Mutable store access (load() can quarantine/salvage, so it mutates).
  SessionStore& store() { return store_; }
  const ServiceOptions& options() const { return options_; }
  /// Tiers in each shard's supervisor chain (incl. safe-hold).
  std::size_t num_tiers() const { return num_tiers_; }

 private:
  struct Request {
    std::uint64_t vehicle_id = 0;
    rt::Deadline deadline;
    std::promise<StepResult> promise;
    /// Request-scoped causal context (inactive when the tracer is off);
    /// parent_span_id points at the svc.submit admission span.
    obs::TraceContext trace;
    /// Tracer timestamp at enqueue (0 while disabled) — start of the
    /// retroactive svc.queue_wait span.
    std::uint64_t enqueue_trace_ns = 0;
    /// Wall-clock enqueue time for the svc.queue_wait_ns histogram
    /// (always stamped; steady clock).
    std::chrono::steady_clock::time_point enqueue_tp{};
  };

  struct Resident {
    std::string blob;                          ///< encoded checkpoint
    std::uint64_t step = 0;
    std::list<std::uint64_t>::iterator lru_it; ///< position in Shard::lru
  };

  struct Shard {
    std::mutex mutex;
    std::deque<Request> queue;
    bool pump_scheduled = false;

    // Pump-only state below: touched exclusively by the single scheduled
    // pump task, serialized by the pump_scheduled handoff above.
    std::unique_ptr<ctl::SupervisedController> controller;
    std::unordered_map<std::uint64_t, Resident> resident;
    std::list<std::uint64_t> lru;  ///< front = most recently stepped
    std::vector<double> tier_cost_ewma_s;
    /// Vehicles that ran their whole profile; kept so a later request
    /// returns kFinished instead of silently recreating the session at
    /// step 0. In-memory only (8 bytes/vehicle): a restarted service
    /// starts empty, matching the retired manifest.
    std::unordered_set<std::uint64_t> finished;
    /// Copy of the last executed step's flight ring, kept only when
    /// flight_dump_dir is set — what a shed (which hydrates nothing) or an
    /// SLO alert dumps as "the recent history of this shard".
    std::unique_ptr<obs::FlightRecorder> last_flight;
  };

  void pump(std::size_t shard_index);
  void process(Shard& shard, Request& request);
  StepResult execute(Shard& shard, const Request& request);
  void evict_overflow(Shard& shard);
  std::size_t pick_tier_floor(const Shard& shard, std::size_t governor_floor,
                              double remaining_s) const;
  void reject(Request& request);
  void quiesce_barrier();
  /// Feed one outcome to the SLO monitor and handle any transition
  /// (alert log append, flight dump, counters). No-op when disabled.
  void note_slo(Shard& shard, std::size_t rule, bool bad,
                std::uint64_t trace_id, std::uint64_t vehicle_id);
  /// Tagged flight dump into flight_dump_dir (best effort; no-op when the
  /// dir is unset or the shard has no recorded steps yet).
  void dump_flight(Shard& shard, const char* reason, std::uint64_t trace_id,
                   std::uint64_t vehicle_id);

  core::EvParams params_;
  const drive::DriveProfile& profile_;
  ServiceOptions options_;
  rt::ThreadPool& pool_;
  SessionStore store_;
  LoadGovernor governor_;
  std::vector<double> motor_power_cache_;
  std::size_t num_tiers_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  /// Set for the span of persist_all(): submits reject instead of
  /// enqueuing, so no pump can race the resident sweep.
  std::atomic<bool> quiescing_{false};

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  struct Counters;
  std::unique_ptr<Counters> counters_;

  struct MetricIds;
  std::unique_ptr<MetricIds> metric_ids_;

  /// SLO burn-rate monitor (null when options_.slo.enabled is false).
  std::unique_ptr<obs::SloMonitor> slo_;
  double slo_latency_threshold_s_ = 0.0;
  mutable std::mutex slo_events_mutex_;
  std::vector<SloEvent> slo_events_;
};

}  // namespace evc::svc
