// Service soak — kill-and-resume chaos plus overload bursts against the
// multi-tenant session service (docs/ROBUSTNESS.md).
//
// Three campaigns, three separate service instances:
//
//   chaos     fill the service with --vehicles sessions under fault
//             injection, then repeatedly *destroy* it mid-run (destruction
//             is a crash as far as persistence goes: nothing is flushed)
//             and restart it over the same store directory. A cohort of
//             vehicles has serial ground-truth traces computed up front;
//             every step the service ever returns for them — before a
//             kill, after a restore, after a deterministic step-0
//             recreation — must match the uninterrupted reference
//             bit-for-bit.
//
//   overload  a service with the p99 governor enabled, its SLO calibrated
//             from this host's measured step cost so the bench is
//             host-independent. A burst far beyond the queue bound must
//             split cleanly into rejected / shed / served with *zero*
//             deadline misses among admitted requests; the governor must
//             demote under the hot tail and re-promote back to floor 0
//             within the hysteresis window once the burst passes.
//
//   storage   the whole service stack on a fault-injecting in-memory VFS:
//             a flaky-disk campaign (seeded write/fsync failures while the
//             byte-identity cohort keeps advancing, plus a VFS-level crash
//             and restart), then a deterministic corruption drill — a
//             seeded corrupt checkpoint must be flagged by fsck, then
//             quarantined and salvaged from the .prev generation by the
//             service's own restore path with zero deadline misses, after
//             which fsck must report the directory clean again.
//
// Exit code is non-zero when any invariant fails, so CI can gate on it.
//
// Flags: --vehicles N   resident sessions in the chaos campaign (default 10000)
//        --kills K      mid-run kill-and-resume cycles (default 2)
//        --cohort N     byte-identity cohort size (default 16)
//        --burst N      overload burst size (default 3072)
//        --config PATH  service-config JSON overlay (svc::apply_service_config_json)
//        --out PATH     machine-readable JSON artifact
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "numerics/simd.hpp"
#include "obs/trace.hpp"
#include "optim/condensed_qp.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/fault_injection.hpp"
#include "svc/config.hpp"
#include "svc/fsck.hpp"
#include "svc/session_service.hpp"
#include "util/args.hpp"
#include "util/expect.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ground truth for one vehicle: the serial session set up exactly the way
/// SessionService hydrates one, advanced uninterrupted.
struct StepTrace {
  std::vector<double> cabin_c;
  std::vector<double> soc_percent;
  std::vector<double> hvac_w;
};

StepTrace serial_reference(const core::EvParams& params,
                           const drive::DriveProfile& profile,
                           const svc::ServiceOptions& options,
                           std::uint64_t vehicle) {
  auto controller = core::make_supervised_mpc_controller(
      params, options.mpc, options.supervisor);
  SplitMix64 rng(options.seed +
                 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(vehicle));
  core::SimulationOptions sim_opts;
  sim_opts.initial_soc_percent = rng.uniform(options.min_initial_soc_percent,
                                             options.max_initial_soc_percent);
  sim_opts.initial_cabin_temp_c = rng.uniform(
      options.min_initial_cabin_temp_c, options.max_initial_cabin_temp_c);
  sim_opts.forecast_horizon_s = options.forecast_horizon_s;
  sim_opts.record_traces = options.record_traces;
  sim_opts.flight_recorder_capacity = options.flight_recorder_capacity;
  std::optional<sim::FaultInjector> injector;
  if (!options.fault_specs.empty()) {
    injector.emplace(options.fault_specs,
                     options.seed ^ (0xD1B54A32D192ED03ull * vehicle));
    sim_opts.fault_injector = &*injector;
  }
  core::SimulationSession session(params, *controller, profile, sim_opts);
  StepTrace trace;
  while (!session.done()) {
    session.advance();
    trace.cabin_c.push_back(session.cabin_temp_c());
    trace.soc_percent.push_back(session.soc_percent());
    trace.hvac_w.push_back(session.last_hvac_power_w());
  }
  return trace;
}

struct ChaosOutcome {
  std::size_t vehicles = 0;
  std::size_t kills = 0;
  std::size_t identity_checks = 0;
  std::size_t identity_mismatches = 0;
  std::size_t recovered_min = 0;    ///< fewest sessions recovered by a restart
  double fill_step_mean_s = 0.0;    ///< measured cost of one service step
  svc::ServiceStats stats;          ///< final service counters
};

/// Drive `count` one-step requests (vehicle ids `first..first+count`) in
/// bounded waves so the client never outruns the admission queues.
template <typename OnResult>
void step_wave(svc::SessionService& service, std::uint64_t first,
               std::size_t count, OnResult&& on_result) {
  constexpr std::size_t kWave = 512;
  std::vector<std::pair<std::uint64_t, std::future<svc::StepResult>>> wave;
  wave.reserve(kWave);
  for (std::size_t begin = 0; begin < count; begin += kWave) {
    const std::size_t end = std::min(count, begin + kWave);
    wave.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t vehicle = first + i;
      wave.emplace_back(vehicle, service.submit_step(vehicle));
    }
    for (auto& [vehicle, future] : wave) on_result(vehicle, future.get());
  }
}

ChaosOutcome run_chaos(const core::EvParams& params,
                       const drive::DriveProfile& profile,
                       std::size_t vehicles, std::size_t kills,
                       std::size_t cohort_size, const std::string& config_json,
                       rt::ThreadPool& pool) {
  const std::string dir = "service_soak_store";
  std::filesystem::remove_all(dir);

  svc::ServiceOptions options;
  options.shards = 8;
  options.queue_capacity = 1024;  // fill waves must never be rejected
  // Most sessions must live on disk so a kill has something to recover:
  // the 8 shards keep a quarter of the fleet resident (312 per shard at
  // 10,000 vehicles, 8 at 256).
  options.resident_per_shard = std::max<std::size_t>(vehicles / 32, 1);
  options.store.dir = dir;
  options.store.sync = svc::SyncPolicy::kBatched;
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  options.mpc.horizon = 6;  // soak measures robustness, not solve depth
  options.supervisor.fdi.enabled = true;
  options.fault_specs = {
      {sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout, 0.05, 0.0, 3},
      {sim::FaultSignal::kOutsideTemp, sim::FaultKind::kSpike, 0.03, 30.0, 1},
      {sim::FaultSignal::kSoc, sim::FaultKind::kStuckAt, 0.02, 150.0, 5},
  };
  // Operator overlay last, so a --config file wins over the bench defaults
  // (the store directory stays ours — it is not a config key).
  if (!config_json.empty()) svc::apply_service_config_json(options, config_json);

  ChaosOutcome out;
  out.vehicles = vehicles;
  out.kills = kills;
  out.recovered_min = vehicles;

  // Serial ground truth for the identity cohort.
  std::vector<StepTrace> refs(cohort_size);
  for (std::uint64_t v = 0; v < cohort_size; ++v)
    refs[v] = serial_reference(params, profile, options, v);
  auto check = [&](std::uint64_t vehicle, const svc::StepResult& r) {
    if (r.status != svc::StepStatus::kOk) return;
    if (vehicle >= cohort_size) return;
    const StepTrace& ref = refs[vehicle];
    ++out.identity_checks;
    if (r.step_index >= ref.cabin_c.size() ||
        r.cabin_temp_c != ref.cabin_c[r.step_index] ||
        r.soc_percent != ref.soc_percent[r.step_index] ||
        r.hvac_power_w != ref.hvac_w[r.step_index])
      ++out.identity_mismatches;
  };

  auto service = std::make_unique<svc::SessionService>(params, profile,
                                                       options, pool);

  // Fill: one step per vehicle → `vehicles` live sessions, most of them
  // spilled to the store by the LRU cap. Also the host step-cost probe.
  const Clock::time_point fill_start = Clock::now();
  step_wave(*service, 0, vehicles, check);
  out.fill_step_mean_s =
      seconds_since(fill_start) / static_cast<double>(vehicles);
  if (service->tracked_sessions() != vehicles) {
    std::cerr << "  chaos: expected " << vehicles << " tracked sessions, got "
              << service->tracked_sessions() << "\n";
    ++out.identity_mismatches;
  }

  SplitMix64 churn_rng(7);
  for (std::size_t kill = 1; kill <= kills; ++kill) {
    // Mid-run crash: the destructor persists nothing.
    service.reset();
    service = std::make_unique<svc::SessionService>(params, profile, options,
                                                    pool);
    out.recovered_min =
        std::min(out.recovered_min, service->recovered_sessions());
    std::cerr << "  chaos: kill " << kill << " → recovered "
              << service->recovered_sessions() << "/" << vehicles << "\n";

    // The cohort advances several steps (restored sessions resume, crashed
    // hydrated ones replay from their last persisted point or step 0 —
    // every returned step must still match the reference).
    for (std::size_t s = 0; s < 3; ++s) step_wave(*service, 0, cohort_size, check);
    // Churn a random filler slice to keep eviction/restore traffic up.
    for (std::size_t i = 0; i < 1024; ++i) {
      const std::uint64_t vehicle =
          cohort_size + churn_rng.next_u64() % (vehicles - cohort_size);
      service->submit_step(vehicle);
    }
    service->drain();
  }

  out.stats = service->stats();
  service.reset();
  std::filesystem::remove_all(dir);
  return out;
}

struct StorageOutcome {
  // flaky-disk campaign
  std::size_t identity_checks = 0;
  std::size_t identity_mismatches = 0;
  std::size_t recovered = 0;        ///< sessions alive after the VFS crash
  std::uint64_t evict_retries = 0;  ///< persist attempts eaten by the disk
  std::size_t flaky_corrupt = 0;    ///< must stay 0: faults fail, not damage
  // corruption drill
  bool fsck_flagged_corruption = false;
  bool fsck_clean_after = false;
  std::size_t quarantined = 0;
  std::size_t salvaged = 0;
  std::size_t drill_errors = 0;  ///< non-kOk results anywhere in the drill
  std::uint64_t deadline_misses = 0;
};

/// Base options for the storage campaigns (small on purpose: the point is
/// fault coverage, not throughput).
svc::ServiceOptions storage_options(const core::EvParams& params,
                                    io::MemVfs& vfs, const std::string& dir) {
  svc::ServiceOptions options;
  options.shards = 2;
  options.queue_capacity = 1024;
  options.store.dir = dir;
  options.store.vfs = &vfs;
  options.store.sync = svc::SyncPolicy::kAlways;  // every persist durable
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  options.mpc.horizon = 6;
  return options;
}

StorageOutcome run_storage(const core::EvParams& params,
                           const drive::DriveProfile& profile,
                           rt::ThreadPool& pool) {
  StorageOutcome out;

  // --- flaky disk: seeded write/fsync failures under live traffic -------
  {
    io::MemVfs::Faults faults;
    faults.seed = 42;
    faults.fault_rate = 0.02;  // ~1 in 50 writes/fsyncs fails ENOSPC/EIO
    io::MemVfs vfs(faults);

    constexpr std::size_t kVehicles = 96;
    constexpr std::size_t kCohort = 8;
    svc::ServiceOptions options = storage_options(params, vfs, "flaky");
    options.resident_per_shard = 16;  // most sessions must round-trip disk

    std::vector<StepTrace> refs(kCohort);
    for (std::uint64_t v = 0; v < kCohort; ++v)
      refs[v] = serial_reference(params, profile, options, v);
    auto check = [&](std::uint64_t vehicle, const svc::StepResult& r) {
      if (r.status != svc::StepStatus::kOk || vehicle >= kCohort) return;
      const StepTrace& ref = refs[vehicle];
      ++out.identity_checks;
      if (r.step_index >= ref.cabin_c.size() ||
          r.cabin_temp_c != ref.cabin_c[r.step_index] ||
          r.soc_percent != ref.soc_percent[r.step_index] ||
          r.hvac_power_w != ref.hvac_w[r.step_index])
        ++out.identity_mismatches;
    };

    auto service = std::make_unique<svc::SessionService>(params, profile,
                                                         options, pool);
    // Fill plus churn waves: the LRU cap keeps evicting onto the flaky
    // disk; a failed persist keeps the session resident (never corrupts).
    for (std::size_t wave = 0; wave < 3; ++wave)
      step_wave(*service, 0, kVehicles, check);
    service->drain();
    out.evict_retries = service->stats().evict_retries;
    out.deadline_misses += service->stats().deadline_misses;

    // Power loss: kill the process *and* drop every unsynced byte. With
    // sync=always everything ever persisted must survive.
    service.reset();
    vfs.crash();
    service = std::make_unique<svc::SessionService>(params, profile, options,
                                                    pool);
    out.recovered = service->recovered_sessions();
    step_wave(*service, 0, kVehicles, check);
    service->drain();
    out.deadline_misses += service->stats().deadline_misses;
    out.flaky_corrupt = service->store().stats().corrupt;
    service.reset();
  }

  // --- deterministic corruption drill: quarantine + salvage -------------
  {
    io::MemVfs vfs;  // reliable disk; the damage is seeded by hand
    svc::ServiceOptions options = storage_options(params, vfs, "drill");
    options.shards = 1;
    options.resident_per_shard = 1;  // every other step evicts → persists

    svc::SessionService service(params, profile, options, pool);
    auto ok = [&](svc::StepResult r) {
      if (r.status != svc::StepStatus::kOk) ++out.drill_errors;
    };
    // Alternate two vehicles through one resident slot until vehicle 0
    // has two persisted generations (v0.ckpt and v0.ckpt.prev).
    ok(service.submit_step(0).get());
    ok(service.submit_step(1).get());  // evicts v0 → persist #1
    ok(service.submit_step(0).get());  // evicts v1, restores v0
    ok(service.submit_step(1).get());  // evicts v0 → persist #2 (+ .prev)
    service.drain();

    const std::string current = service.store().checkpoint_path(0);
    vfs.corrupt_byte(current, vfs.peek(current).size() - 1, 0x40);

    // The offline scrub must see exactly what we planted.
    const svc::FsckReport before = svc::fsck_store(vfs, "drill");
    out.fsck_flagged_corruption = !before.clean() && before.corrupt == 1;

    // The service's own restore path heals it: quarantine the damaged
    // generation, salvage .prev, resume stepping — no error surfaces.
    ok(service.submit_step(0).get());
    service.drain();
    out.quarantined = service.store().stats().quarantined;
    out.salvaged = service.store().stats().salvaged;
    out.deadline_misses += service.stats().deadline_misses;

    const svc::FsckReport after = svc::fsck_store(vfs, "drill");
    out.fsck_clean_after = after.clean();
  }
  return out;
}

struct OverloadOutcome {
  std::size_t burst = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_misses = 0;
  std::size_t governor_demotions = 0;
  std::size_t governor_promotions = 0;
  std::size_t floor_after_burst = 0;
  std::size_t floor_after_recovery = 0;
  std::size_t recovery_samples = 0;       ///< steps until floor returned to 0
  std::size_t recovery_budget = 0;        ///< hysteresis-window allowance
  svc::GovernorStats governor;
  std::uint64_t slo_alerts_fired = 0;
  std::uint64_t slo_alerts_cleared = 0;
  /// Demotions the governor had performed when the first SLO alert fired —
  /// the monitor's whole point is paging *before* degradation, so 0.
  std::size_t demotions_at_first_fire = 0;
  bool slo_fired_before_demotion = false;
  bool slo_firing_after_recovery = true;
};

OverloadOutcome run_overload(const core::EvParams& params,
                             const drive::DriveProfile& profile,
                             std::size_t burst, double step_cost_s,
                             rt::ThreadPool& pool) {
  const std::string dir = "service_soak_overload";
  std::filesystem::remove_all(dir);

  svc::ServiceOptions options;
  options.shards = 4;
  options.queue_capacity = 128;
  options.resident_per_shard = 4096;
  options.store.dir = dir;
  options.store.sync = svc::SyncPolicy::kNever;
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  options.mpc.horizon = 6;
  // Admitted requests must never miss: generous safety margin and a
  // pessimistic prior for unsampled tiers (shed instead of gambling).
  options.deadline_safety = 8.0;
  options.unsampled_tier_cost_s = 0.05;
  // SLO calibrated from this host's measured full-tier step cost: the
  // full tier violates it (demotion must happen), the cheap tiers clear
  // it (re-promotion must happen).
  options.governor.slo_p99_s = std::max(0.8 * step_cost_s, 1e-5);
  options.governor.window = 256;
  options.governor.min_samples = 32;
  options.governor.evaluate_every = 16;
  options.governor.promote_hold = 64;
  options.governor.max_floor = 3;
  // SLO burn-rate monitor, calibrated so only the saturated burst burns:
  // the latency threshold sits far above any single step (full tier
  // included — a request only violates it by *queueing*), so the monitor
  // fires on the backlog and clears during the serial recovery load even
  // after the governor has walked the floor back to full MPC. The rule's
  // fast window (16 samples) verdicts before the governor's min_samples
  // cold-start guard (32) — that ordering is the page-before-degrade
  // contract the table below asserts.
  options.slo.enabled = true;
  options.slo.latency_threshold_s = std::max(10.0 * step_cost_s, 1e-4);

  svc::SessionService service(params, profile, options, pool);

  OverloadOutcome out;
  out.burst = burst;

  // Burst: every request carries a real deadline, far more of them than
  // the queues can hold. Admission and the deadline scheduler must split
  // the burst into rejected / shed / served — never admitted-then-missed.
  // A quarter of the burst carries a deadline shorter than any sampled
  // tier's cost × safety: those are admitted but *must* be shed at
  // service time, which is the shed-not-miss half of the contract.
  const std::size_t fleet = 64;
  std::vector<std::future<svc::StepResult>> futures;
  futures.reserve(burst);
  const Clock::time_point submit_start = Clock::now();
  for (std::size_t i = 0; i < burst; ++i) {
    const double deadline_s = i % 4 == 3 ? 0.005 : 1.0;
    futures.push_back(service.submit_step(i % fleet, deadline_s));
  }
  std::cerr << "  overload: submitted " << burst << " in "
            << seconds_since(submit_start) * 1e3 << " ms\n";
  for (auto& future : futures) {
    const svc::StepResult r = future.get();
    switch (r.status) {
      case svc::StepStatus::kOk:
        ++out.served;
        if (r.deadline_missed) ++out.deadline_misses;
        break;
      case svc::StepStatus::kRejected: ++out.rejected; break;
      case svc::StepStatus::kShed: ++out.shed; break;
      case svc::StepStatus::kFinished: break;
    }
  }
  out.floor_after_burst = service.governor_stats().demotions > 0
                              ? service.governor_stats().demotions -
                                    service.governor_stats().promotions
                              : 0;

  // Recovery: light, deadline-free load. The p99 window refills with cheap
  // samples, the governor must walk the floor back to 0, and the SLO
  // monitor must clear — its slow windows (128 latency / 256 errors) need
  // that many consecutive good samples after the last shed, hence the
  // extra allowance on top of the governor's hysteresis budget.
  out.recovery_budget =
      options.governor.window +
      (options.governor.max_floor + 1) * options.governor.promote_hold +
      options.governor.window + options.slo.latency_rule.slow_window +
      options.slo.error_rule.slow_window;
  std::size_t samples = 0;
  while (samples < out.recovery_budget) {
    service.submit_step(samples % fleet).get();
    ++samples;
    const std::size_t floor =
        service.governor_stats().demotions - service.governor_stats().promotions;
    if (floor == 0 && !service.slo_firing() &&
        samples >= options.governor.min_samples)
      break;
  }
  out.recovery_samples = samples;
  out.governor = service.governor_stats();
  out.governor_demotions = out.governor.demotions;
  out.governor_promotions = out.governor.promotions;
  out.floor_after_recovery = out.governor.demotions - out.governor.promotions;
  out.deadline_misses = service.stats().deadline_misses;
  out.slo_alerts_fired = service.stats().slo_alerts_fired;
  out.slo_alerts_cleared = service.stats().slo_alerts_cleared;
  out.slo_firing_after_recovery = service.slo_firing();
  for (const svc::SessionService::SloEvent& event : service.slo_events()) {
    if (!event.alert.firing) continue;
    out.demotions_at_first_fire = event.governor_demotions;
    out.slo_fired_before_demotion = event.governor_demotions == 0;
    break;
  }

  std::filesystem::remove_all(dir);
  return out;
}

void write_json(const std::string& path, const ChaosOutcome& chaos,
                const OverloadOutcome& overload,
                const StorageOutcome& storage) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("service_soak");
  json.key("backend").value(
      opt::to_string(core::MpcOptions{}.sqp.backend));
  json.key("simd").value(num::simd::to_string(num::simd::active_isa()));
  json.key("chaos");
  json.begin_object();
  json.key("vehicles").value(chaos.vehicles);
  json.key("kills").value(chaos.kills);
  json.key("identity_checks").value(chaos.identity_checks);
  json.key("identity_mismatches").value(chaos.identity_mismatches);
  json.key("recovered_min").value(chaos.recovered_min);
  json.key("fill_step_mean_s").value(chaos.fill_step_mean_s);
  json.key("steps").value(chaos.stats.steps);
  json.key("creates").value(chaos.stats.creates);
  json.key("restores").value(chaos.stats.restores);
  json.key("evictions").value(chaos.stats.evictions);
  json.key("deadline_misses").value(chaos.stats.deadline_misses);
  json.end_object();
  json.key("overload");
  json.begin_object();
  json.key("burst").value(overload.burst);
  json.key("served").value(overload.served);
  json.key("rejected").value(overload.rejected);
  json.key("shed").value(overload.shed);
  json.key("deadline_misses").value(overload.deadline_misses);
  json.key("governor_demotions").value(overload.governor_demotions);
  json.key("governor_promotions").value(overload.governor_promotions);
  json.key("floor_after_recovery").value(overload.floor_after_recovery);
  json.key("recovery_samples").value(overload.recovery_samples);
  json.key("recovery_budget").value(overload.recovery_budget);
  json.key("slo_alerts_fired").value(overload.slo_alerts_fired);
  json.key("slo_alerts_cleared").value(overload.slo_alerts_cleared);
  json.key("demotions_at_first_fire")
      .value(overload.demotions_at_first_fire);
  json.key("slo_fired_before_demotion")
      .value(overload.slo_fired_before_demotion);
  json.key("slo_firing_after_recovery")
      .value(overload.slo_firing_after_recovery);
  json.end_object();
  json.key("storage");
  json.begin_object();
  json.key("identity_checks").value(storage.identity_checks);
  json.key("identity_mismatches").value(storage.identity_mismatches);
  json.key("recovered").value(storage.recovered);
  json.key("evict_retries").value(storage.evict_retries);
  json.key("flaky_corrupt").value(storage.flaky_corrupt);
  json.key("fsck_flagged_corruption").value(storage.fsck_flagged_corruption);
  json.key("fsck_clean_after").value(storage.fsck_clean_after);
  json.key("quarantined").value(storage.quarantined);
  json.key("salvaged").value(storage.salvaged);
  json.key("drill_errors").value(storage.drill_errors);
  json.key("deadline_misses").value(storage.deadline_misses);
  json.end_object();
  json.end_object();

  std::ofstream file(path);
  file << json.str() << "\n";
  std::cerr << "  wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  const ArgParser args(argc, argv);
  const std::size_t vehicles =
      static_cast<std::size_t>(args.get_int("vehicles", 10000));
  const std::size_t kills = static_cast<std::size_t>(args.get_int("kills", 2));
  const std::size_t cohort =
      static_cast<std::size_t>(args.get_int("cohort", 16));
  const std::size_t burst =
      static_cast<std::size_t>(args.get_int("burst", 3072));
  const std::string out_path = args.get_string("out", "");
  const std::string config_path = args.get_string("config", "");
  args.reject_unknown({"vehicles", "kills", "cohort", "burst", "config", "out"});

  std::string config_json;
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    EVC_EXPECT(static_cast<bool>(in), "cannot read --config " + config_path);
    config_json.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  const core::EvParams params;
  const drive::DriveProfile profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc,
                                bench::kDefaultAmbientC)
          .window(0, 48);
  // A dedicated pool with real workers even on single-core hosts: the
  // global pool degrades to inline execution there, which would make the
  // admission queues unfillable and the burst assertions vacuous.
  rt::ThreadPool pool(
      std::max<std::size_t>(3, rt::ThreadPool::default_concurrency() - 1));

  std::cerr << "  chaos: " << vehicles << " sessions, " << kills
            << " kill-and-resume cycles...\n";
  const ChaosOutcome chaos =
      run_chaos(params, profile, vehicles, kills, cohort, config_json, pool);
  std::cerr << "  overload: burst of " << burst << " (step cost "
            << chaos.fill_step_mean_s * 1e3 << " ms)...\n";
  const OverloadOutcome overload =
      run_overload(params, profile, burst, chaos.fill_step_mean_s, pool);
  std::cerr << "  storage: flaky-disk campaign + corruption drill...\n";
  const StorageOutcome storage = run_storage(params, profile, pool);

  TextTable table({"check", "value", "requirement", "ok"});
  bool ok = true;
  auto row = [&](const std::string& name, const std::string& value,
                 const std::string& requirement, bool pass) {
    table.add_row({name, value, requirement, pass ? "yes" : "NO"});
    ok = ok && pass;
  };
  row("byte-identity checks", std::to_string(chaos.identity_checks), "> 0",
      chaos.identity_checks > 0);
  row("byte-identity mismatches", std::to_string(chaos.identity_mismatches),
      "== 0", chaos.identity_mismatches == 0);
  row("sessions recovered after kill", std::to_string(chaos.recovered_min),
      ">= " + std::to_string(vehicles / 2), chaos.recovered_min >= vehicles / 2);
  row("chaos deadline misses", std::to_string(chaos.stats.deadline_misses),
      "== 0", chaos.stats.deadline_misses == 0);
  row("burst rejected", std::to_string(overload.rejected), "> 0",
      overload.rejected > 0);
  row("burst shed", std::to_string(overload.shed), "> 0", overload.shed > 0);
  row("burst served", std::to_string(overload.served), "> 0",
      overload.served > 0);
  row("burst deadline misses", std::to_string(overload.deadline_misses),
      "== 0", overload.deadline_misses == 0);
  row("governor demotions", std::to_string(overload.governor_demotions),
      "> 0", overload.governor_demotions > 0);
  row("slo alerts fired", std::to_string(overload.slo_alerts_fired), "> 0",
      overload.slo_alerts_fired > 0);
  row("slo fired before first demotion",
      std::to_string(overload.demotions_at_first_fire) + " demotions",
      "fired at 0", overload.slo_fired_before_demotion);
  row("slo cleared after recovery",
      overload.slo_firing_after_recovery ? "still firing" : "clear",
      "clear", !overload.slo_firing_after_recovery &&
                   overload.slo_alerts_cleared > 0);
  row("governor re-promoted to floor 0",
      std::to_string(overload.floor_after_recovery), "== 0",
      overload.floor_after_recovery == 0);
  row("re-promotion samples", std::to_string(overload.recovery_samples),
      "< " + std::to_string(overload.recovery_budget),
      overload.recovery_samples < overload.recovery_budget);
  row("storage identity checks", std::to_string(storage.identity_checks),
      "> 0", storage.identity_checks > 0);
  row("storage identity mismatches",
      std::to_string(storage.identity_mismatches), "== 0",
      storage.identity_mismatches == 0);
  row("storage sessions after power loss", std::to_string(storage.recovered),
      "> 0", storage.recovered > 0);
  row("storage flaky-disk corruption", std::to_string(storage.flaky_corrupt),
      "== 0", storage.flaky_corrupt == 0);
  row("fsck flagged seeded corruption",
      storage.fsck_flagged_corruption ? "yes" : "no", "yes",
      storage.fsck_flagged_corruption);
  row("drill quarantined", std::to_string(storage.quarantined), ">= 1",
      storage.quarantined >= 1);
  row("drill salvaged", std::to_string(storage.salvaged), ">= 1",
      storage.salvaged >= 1);
  row("drill step errors", std::to_string(storage.drill_errors), "== 0",
      storage.drill_errors == 0);
  row("fsck clean after salvage", storage.fsck_clean_after ? "yes" : "no",
      "yes", storage.fsck_clean_after);
  row("storage deadline misses", std::to_string(storage.deadline_misses),
      "== 0", storage.deadline_misses == 0);

  std::cout << table.render(
      "Service soak — kill-and-resume chaos + overload burst + storage faults");
  std::cout << "\nExpected shape: every cohort step matches its serial "
               "reference bit-for-bit across\n" << kills
            << " kills; the burst splits into rejected/shed/served with zero "
               "misses among\nadmitted requests; the governor demotes under "
               "load and re-promotes within the\nhysteresis window; the "
               "flaky disk slows the service but never corrupts it;\nthe "
               "seeded corruption is quarantined and salvaged without a "
               "visible error.\n";

  if (!out_path.empty()) write_json(out_path, chaos, overload, storage);
  return ok ? 0 : 1;
}
