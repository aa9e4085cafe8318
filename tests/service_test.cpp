// Overload-robust multi-tenant session service: admission control,
// deadline-aware shedding, LRU eviction with transparent restore, and
// crash-recoverable session lifecycle through the write-ahead store.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/governor.hpp"
#include "svc/session_service.hpp"
#include "svc/session_store.hpp"
#include "util/json_parse.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

namespace evc {
namespace {

using svc::ServiceOptions;
using svc::SessionService;
using svc::StepResult;
using svc::StepStatus;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "service_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

drive::DriveProfile test_profile(std::size_t steps) {
  return drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
      .window(0, steps);
}

ServiceOptions base_options(const core::EvParams& params,
                            const std::string& dir) {
  ServiceOptions options;
  options.store.dir = dir;
  options.store.sync = svc::SyncPolicy::kNever;  // tests value speed
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  return options;
}

/// Per-step ground truth for one vehicle: a serial SimulationSession set up
/// exactly the way SessionService::execute hydrates one (same seed idiom,
/// same simulation options), advanced uninterrupted.
struct StepTrace {
  std::vector<double> cabin_c;
  std::vector<double> soc_percent;
  std::vector<double> hvac_w;
};

StepTrace serial_reference(const core::EvParams& params,
                           const drive::DriveProfile& profile,
                           const ServiceOptions& options,
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

/// A service-produced step must agree bit-for-bit with the serial
/// reference at the same step index — eviction, restore, and restarts are
/// all required to be invisible in the numbers.
void expect_matches_reference(const StepTrace& trace, const StepResult& r) {
  ASSERT_EQ(r.status, StepStatus::kOk);
  ASSERT_LT(r.step_index, trace.cabin_c.size());
  EXPECT_EQ(r.cabin_temp_c, trace.cabin_c[r.step_index]);
  EXPECT_EQ(r.soc_percent, trace.soc_percent[r.step_index]);
  EXPECT_EQ(r.hvac_power_w, trace.hvac_w[r.step_index]);
}

// --- Load governor ---

TEST(LoadGovernor, DisabledGovernorPinsFloorAtZero) {
  svc::LoadGovernor governor(svc::GovernorOptions{});  // slo_p99_s = 0
  EXPECT_FALSE(governor.enabled());
  for (int i = 0; i < 1000; ++i) governor.observe_s(10.0);
  EXPECT_EQ(governor.floor(), 0u);
  EXPECT_EQ(governor.stats().demotions, 0u);
}

TEST(LoadGovernor, DemotesOnHotP99AndRepromotesWithHysteresis) {
  svc::GovernorOptions options;
  options.slo_p99_s = 0.010;
  options.window = 64;
  options.min_samples = 16;
  options.evaluate_every = 8;
  options.promote_hold = 32;
  options.max_floor = 2;
  svc::LoadGovernor governor(options);
  ASSERT_TRUE(governor.enabled());

  // Hot: every sample at 2x the SLO. The floor must march to max_floor
  // and no further.
  for (int i = 0; i < 128; ++i) governor.observe_s(0.020);
  EXPECT_EQ(governor.floor(), options.max_floor);
  EXPECT_GE(governor.stats().demotions, 2u);
  EXPECT_EQ(governor.stats().promotions, 0u);
  EXPECT_EQ(governor.stats().last_hot_share, 1.0);

  // Cool but inside the hysteresis band (between the watermarks): the
  // floor must hold.
  for (int i = 0; i < 128; ++i) governor.observe_s(0.0075);
  EXPECT_EQ(governor.floor(), options.max_floor);
  EXPECT_EQ(governor.stats().last_hot_share, 0.0);

  // Convincingly cool: promotion, but only after promote_hold samples per
  // step down — the recovery half of the hysteresis.
  for (int i = 0; i < 256; ++i) governor.observe_s(0.001);
  EXPECT_EQ(governor.floor(), 0u);
  EXPECT_GE(governor.stats().promotions, 2u);
}

TEST(LoadGovernor, RejectsMinSamplesItsWindowCannotHold) {
  svc::GovernorOptions options;
  options.slo_p99_s = 0.010;
  options.window = 64;
  options.min_samples = 128;
  // The window never holds 128 samples, so this governor would never act.
  EXPECT_THROW(svc::LoadGovernor governor(options), std::invalid_argument);

  options.min_samples = options.window;
  svc::LoadGovernor governor(options);
  for (int i = 0; i < 1000; ++i) governor.observe_s(0.020);
  EXPECT_EQ(governor.floor(), options.max_floor);
}

/// The governor the count-based one replaced: it keeps the window's
/// latencies and takes their nearest-rank p99 with nth_element. Kept here,
/// without its metrics, as the reference for the floor decisions.
class NearestRankGovernor {
 public:
  explicit NearestRankGovernor(const svc::GovernorOptions& options)
      : options_(options), ring_(options.window, 0.0) {}

  void observe_s(double step_latency_s) {
    ring_[next_] = step_latency_s;
    next_ = (next_ + 1) % ring_.size();
    filled_ = std::min(filled_ + 1, ring_.size());
    ++since_change_;
    if (++since_eval_ >= options_.evaluate_every) {
      since_eval_ = 0;
      evaluate();
    }
  }

  std::size_t floor() const { return floor_; }

 private:
  void evaluate() {
    if (filled_ < options_.min_samples) return;
    scratch_.assign(ring_.begin(),
                    ring_.begin() + static_cast<std::ptrdiff_t>(filled_));
    const std::size_t rank = (filled_ * 99) / 100;
    const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(rank, filled_ - 1));
    std::nth_element(scratch_.begin(), nth, scratch_.end());
    const double p99 = *nth;
    if (p99 >= svc::kDemoteWatermark * options_.slo_p99_s &&
        floor_ < options_.max_floor) {
      ++floor_;
      since_change_ = 0;
    } else if (p99 <= svc::kPromoteWatermark * options_.slo_p99_s &&
               floor_ > 0 && since_change_ >= options_.promote_hold) {
      --floor_;
      since_change_ = 0;
    }
  }

  svc::GovernorOptions options_;
  std::vector<double> ring_;
  std::vector<double> scratch_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t since_eval_ = 0;
  std::size_t since_change_ = 0;
  std::size_t floor_ = 0;
};

TEST(LoadGovernor, FloorMatchesNearestRankReference) {
  SplitMix64 rng(20);
  // An end of [lo, hi] half the time, a uniform draw inside otherwise.
  const auto pick = [&rng](std::size_t lo, std::size_t hi) -> std::size_t {
    switch (rng.next_u64() % 4) {
      case 0: return lo;
      case 1: return hi;
      default: return lo + rng.next_u64() % (hi - lo + 1);
    }
  };
  // Share of a phase's samples drawn from its tail kind.
  constexpr double kTailShare[] = {0.0, 0.005, 0.01, 0.02, 0.05, 0.5, 1.0};
  constexpr std::size_t kSamples = 2000;
  std::size_t demotions = 0;
  std::size_t promotions = 0;

  for (const std::size_t window : {2u, 64u, 100u, 101u, 512u}) {
    for (int c = 0; c < 60; ++c) {
      svc::GovernorOptions options;
      options.slo_p99_s = 0.010;
      options.window = window;
      options.min_samples = pick(1, window);
      options.evaluate_every = pick(1, 32);
      options.promote_hold = pick(0, 128);
      options.max_floor = pick(0, 3);
      SCOPED_TRACE("window " + std::to_string(window) + " min_samples " +
                   std::to_string(options.min_samples) + " evaluate_every " +
                   std::to_string(options.evaluate_every) + " promote_hold " +
                   std::to_string(options.promote_hold) + " max_floor " +
                   std::to_string(options.max_floor));
      svc::LoadGovernor governor(options);
      NearestRankGovernor reference(options);

      // The thresholds exactly as the governors form them, so ties land
      // on both sides of each comparison.
      const double demote_at = svc::kDemoteWatermark * options.slo_p99_s;
      const double promote_at = svc::kPromoteWatermark * options.slo_p99_s;
      // Sample kinds: 0 under the promote threshold, 1 on it, 2 inside the
      // hysteresis band, 3 on the demote threshold, 4 past it.
      const auto draw = [&](std::size_t kind) {
        switch (kind) {
          case 0: return promote_at * rng.uniform(0.05, 0.99);
          case 1: return promote_at;
          case 2:
            return promote_at + (demote_at - promote_at) *
                                    rng.uniform(0.01, 0.99);
          case 3: return demote_at;
          default: return demote_at * rng.uniform(1.01, 3.0);
        }
      };

      // Phases of 16–615 samples, each a body kind with a share of tail
      // samples, so the tail count crosses ⌈n/100⌉ in both directions.
      std::size_t left = 0;
      std::size_t body = 0;
      std::size_t tail = 0;
      double share = 0.0;
      for (std::size_t i = 0; i < kSamples; ++i) {
        if (left == 0) {
          left = 16 + rng.next_u64() % 600;
          body = rng.next_u64() % 3;
          tail = 1 + rng.next_u64() % 4;
          share = kTailShare[rng.next_u64() % std::size(kTailShare)];
        }
        --left;
        const double latency_s =
            draw(rng.next_double() < share ? tail : body);
        governor.observe_s(latency_s);
        reference.observe_s(latency_s);
        ASSERT_EQ(governor.floor(), reference.floor()) << "after sample " << i;
      }
      demotions += governor.stats().demotions;
      promotions += governor.stats().promotions;
    }
  }
  // Not vacuous: the streams move the floor both ways many times.
  EXPECT_GT(demotions, 500u);
  EXPECT_GT(promotions, 500u);
}

// --- Session store ---

TEST(SessionStore, PersistLoadRetireRoundTrip) {
  const std::string dir = fresh_dir("store_roundtrip");
  svc::SessionStoreOptions options;
  options.dir = dir;
  svc::SessionStore store(options);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.recovered().empty());

  const std::string blob_a = sim::Checkpoint::wrap("state of vehicle 7").encode();
  const std::string blob_b = sim::Checkpoint::wrap("state of vehicle 9").encode();
  store.persist(7, 12, blob_a);
  store.persist(9, 31, blob_b);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.load(7).value(), blob_a);
  EXPECT_EQ(store.load(9).value(), blob_b);
  EXPECT_EQ(store.persisted_step(9).value(), 31u);
  EXPECT_FALSE(store.load(8).has_value());

  // Re-persisting overwrites; retiring forgets file and manifest entry.
  store.persist(7, 20, blob_b);
  EXPECT_EQ(store.persisted_step(7).value(), 20u);
  store.retire(7);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.load(7).has_value());
  EXPECT_FALSE(std::filesystem::exists(store.checkpoint_path(7)));

  // A payload that is not a checkpoint envelope is corruption, not a
  // storage hiccup — it must throw the non-retryable type.
  EXPECT_THROW(store.persist(5, 1, "not an envelope"), SerializationError);
  std::filesystem::remove_all(dir);
}

TEST(SessionStore, ReplaysManifestAcrossReopenAndTruncatesTornTail) {
  const std::string dir = fresh_dir("store_replay");
  svc::SessionStoreOptions options;
  options.dir = dir;
  const std::string blob = sim::Checkpoint::wrap("payload").encode();
  {
    svc::SessionStore store(options);
    store.persist(1, 3, blob);
    store.persist(2, 7, blob);
    store.retire(1);
  }
  // Simulate a crash mid-append: garbage at the manifest tail that can
  // never checksum.
  {
    std::ofstream manifest(dir + "/manifest.wal",
                           std::ios::binary | std::ios::app);
    manifest << "\x0c\x00\x00\x00torn-record-tail";
  }
  {
    svc::SessionStore store(options);
    ASSERT_EQ(store.recovered().size(), 1u);
    EXPECT_EQ(store.recovered()[0].vehicle_id, 2u);
    EXPECT_EQ(store.recovered()[0].step, 7u);
    EXPECT_GT(store.stats().torn_tail_bytes, 0u);
    EXPECT_EQ(store.load(2).value(), blob);
    EXPECT_FALSE(store.load(1).has_value());
  }
  // The torn tail was truncated away, so a third open replays cleanly.
  {
    svc::SessionStore store(options);
    EXPECT_EQ(store.recovered().size(), 1u);
    EXPECT_EQ(store.stats().torn_tail_bytes, 0u);
  }
  std::filesystem::remove_all(dir);
}

// Satellite: two threads evicting/restoring *disjoint* sessions through
// the same store directory — the exact shape the sharded service produces.
// Runs under the TSan CI leg; any lock hole in the store shows up here.
TEST(SessionStore, ConcurrentDisjointPersistRestoreIsSafe) {
  const std::string dir = fresh_dir("store_concurrent");
  svc::SessionStoreOptions options;
  options.dir = dir;
  options.sync = svc::SyncPolicy::kBatched;
  options.batch_every = 8;
  svc::SessionStore store(options);

  auto worker = [&store](std::uint64_t first_id, int* failures) {
    for (std::uint64_t round = 0; round < 24; ++round) {
      for (std::uint64_t id = first_id; id < first_id + 8; ++id) {
        const std::string blob =
            sim::Checkpoint::wrap("v" + std::to_string(id) + " r" +
                                  std::to_string(round))
                .encode();
        store.persist(id, round, blob);
        auto loaded = store.load(id);
        if (!loaded || *loaded != blob) ++*failures;
        if (round % 5 == 4) store.retire(id);
      }
    }
  };
  int failures_a = 0;
  int failures_b = 0;
  std::thread a(worker, 100, &failures_a);
  std::thread b(worker, 200, &failures_b);
  a.join();
  b.join();
  EXPECT_EQ(failures_a, 0);
  EXPECT_EQ(failures_b, 0);
  store.flush();
  EXPECT_EQ(store.stats().persists, 2u * 24u * 8u);
  std::filesystem::remove_all(dir);
}

// --- Session service ---

TEST(SessionService, StepsMatchSerialReferenceBitForBit) {
  const core::EvParams params;
  const auto profile = test_profile(24);
  const std::string dir = fresh_dir("svc_reference");
  ServiceOptions options = base_options(params, dir);
  options.shards = 2;
  const StepTrace ref_a = serial_reference(params, profile, options, 11);
  const StepTrace ref_b = serial_reference(params, profile, options, 12);

  rt::ThreadPool pool(4);
  SessionService service(params, profile, options, pool);
  EXPECT_GE(service.num_tiers(), 4u);
  for (std::size_t step = 0; step < 10; ++step) {
    const StepResult ra = service.submit_step(11).get();
    const StepResult rb = service.submit_step(12).get();
    EXPECT_EQ(ra.step_index, step);
    EXPECT_EQ(ra.created, step == 0);
    EXPECT_EQ(ra.tier_floor, 0u);
    expect_matches_reference(ref_a, ra);
    expect_matches_reference(ref_b, rb);
  }
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.steps, 20u);
  EXPECT_EQ(stats.creates, 2u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(service.tracked_sessions(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, FullQueueRejectsWithRetryAfter) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_admission");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  options.queue_capacity = 2;
  options.retry_after_s = 0.25;

  // A single-thread pool whose only worker is parked on a gate: requests
  // can be enqueued but no pump can run, so the queue bound is exercised
  // deterministically.
  rt::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> parked;
  pool.submit([&] {
    parked.set_value();
    opened.wait();
  });
  parked.get_future().wait();

  SessionService service(params, profile, options, pool);
  std::future<StepResult> first = service.submit_step(1);
  std::future<StepResult> second = service.submit_step(1);
  std::future<StepResult> third = service.submit_step(1);
  // The rejection resolves immediately, without any pump running.
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StepResult rejected = third.get();
  EXPECT_EQ(rejected.status, StepStatus::kRejected);
  EXPECT_EQ(rejected.retry_after_s, 0.25);

  gate.set_value();
  EXPECT_EQ(first.get().status, StepStatus::kOk);
  EXPECT_EQ(second.get().status, StepStatus::kOk);
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, ExpiredDeadlineShedsInsteadOfMissing) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_shed");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  rt::ThreadPool pool(2);
  SessionService service(params, profile, options, pool);

  // 1 ns of budget is over before the pump can possibly pick the request
  // up: the scheduler must shed, not run-and-miss.
  const StepResult shed = service.submit_step(3, 1e-9).get();
  EXPECT_EQ(shed.status, StepStatus::kShed);
  EXPECT_GT(shed.retry_after_s, 0.0);

  // A generous deadline on the same vehicle executes normally — the shed
  // request had no side effects.
  const StepResult ok = service.submit_step(3, 30.0).get();
  EXPECT_EQ(ok.status, StepStatus::kOk);
  EXPECT_EQ(ok.step_index, 0u);
  EXPECT_TRUE(ok.created);
  EXPECT_FALSE(ok.deadline_missed);

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.steps, 1u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  std::filesystem::remove_all(dir);
}

std::uint64_t histogram_count(const std::string& name) {
  for (const obs::MetricValue& m :
       obs::MetricsRegistry::global().snapshot().metrics)
    if (m.name == name && m.kind == obs::MetricKind::kHistogram)
      return m.histogram.count;
  return 0;
}

TEST(SessionService, QueueWaitLandsInItsOwnHistogram) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_queue_wait");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;

  // The global registry is cumulative across tests: diff, don't compare
  // absolutes.
  const std::uint64_t wait_before = histogram_count("svc.queue_wait_ns");
  const std::uint64_t step_before = histogram_count("svc.step_ns");

  rt::ThreadPool pool(2);
  SessionService service(params, profile, options, pool);
  for (std::size_t step = 0; step < 6; ++step)
    ASSERT_EQ(service.submit_step(7).get().status, StepStatus::kOk);

  // Queue wait is its own series now — svc.step_ns is pure service time,
  // and both must have recorded one sample per executed step.
  EXPECT_GE(histogram_count("svc.queue_wait_ns"), wait_before + 6);
  EXPECT_GE(histogram_count("svc.step_ns"), step_before + 6);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, SloErrorRuleFiresOnShedBurst) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_slo_fire");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  options.slo.enabled = true;

  rt::ThreadPool pool(2);
  SessionService service(params, profile, options, pool);
  EXPECT_FALSE(service.slo_firing());

  // Every expired-deadline shed is a bad sample for the error-rate rule;
  // an all-bad stream must fire it once min_samples (= fast_window = 32)
  // verdicts exist.
  for (int i = 0; i < 40; ++i) {
    const StepResult shed = service.submit_step(9, 1e-9).get();
    ASSERT_EQ(shed.status, StepStatus::kShed);
  }

  EXPECT_TRUE(service.slo_firing());
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.slo_alerts_fired, 1u);
  EXPECT_EQ(stats.slo_alerts_cleared, 0u);

  const auto events = service.slo_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].alert.firing);
  EXPECT_EQ(events[0].alert.rule, "svc-errors");
  EXPECT_GE(events[0].alert.fast_burn, 14.4);
  EXPECT_EQ(events[0].governor_demotions, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, FlightRecorderDumpsOnShedWithTriggerTag) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_flight_dump");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  options.flight_dump_dir = dir + "/flights";
  std::filesystem::create_directories(options.flight_dump_dir);

  rt::ThreadPool pool(2);
  SessionService service(params, profile, options, pool);

  // A shed before any step has run finds an empty last-known-good ring:
  // nothing to dump.
  ASSERT_EQ(service.submit_step(4, 1e-9).get().status, StepStatus::kShed);
  EXPECT_EQ(service.stats().flight_dumps, 0u);

  // One good step populates the shard's last-known-good recorder; the next
  // shed snapshots it, tagged with the trigger.
  ASSERT_EQ(service.submit_step(4).get().status, StepStatus::kOk);
  ASSERT_EQ(service.submit_step(4, 1e-9).get().status, StepStatus::kShed);
  EXPECT_EQ(service.stats().flight_dumps, 1u);

  const std::string path =
      options.flight_dump_dir + "/flight_svc-shed_0.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = parse_json(buf.str());
  const JsonValue* trigger = doc.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->find("reason")->as_string(), "svc.shed");
  EXPECT_EQ(trigger->find("vehicle_id")->as_number(), 4.0);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, SubmitStepYieldsACausalTraceChain) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_trace_chain");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  StepResult r;
  StepResult timed;
  StepResult shed;
  std::string json;
  {
    rt::ThreadPool pool(2);
    SessionService service(params, profile, options, pool);
    r = service.submit_step(5).get();
    timed = service.submit_step(5, 30.0).get();
    shed = service.submit_step(5, 1e-9).get();
    json = tracer.chrome_json();
  }
  tracer.set_enabled(false);
  ASSERT_EQ(r.status, StepStatus::kOk);
  ASSERT_EQ(timed.status, StepStatus::kOk);
  ASSERT_EQ(shed.status, StepStatus::kShed);
  ASSERT_NE(r.trace_id, 0u);

  struct Span {
    std::uint64_t span_id = 0;
    std::uint64_t parent = 0;
    const JsonValue* args = nullptr;  ///< null when not recorded
  };
  const JsonValue doc = parse_json(json);
  const auto find_event = [&](const char* name, const char* phase,
                              std::uint64_t trace_id) {
    Span out;
    for (const JsonValue& e : doc.find("traceEvents")->items()) {
      const JsonValue* n = e.find("name");
      const JsonValue* ph = e.find("ph");
      const JsonValue* args = e.find("args");
      if (n == nullptr || ph == nullptr || args == nullptr) continue;
      if (n->as_string() != name || ph->as_string() != phase) continue;
      const JsonValue* tid = args->find("trace_id");
      if (tid == nullptr ||
          static_cast<std::uint64_t>(tid->as_number()) != trace_id)
        continue;
      out.args = args;
      if (const JsonValue* id = args->find("span_id"))
        out.span_id = static_cast<std::uint64_t>(id->as_number());
      if (const JsonValue* p = args->find("parent_span_id"))
        out.parent = static_cast<std::uint64_t>(p->as_number());
      return out;
    }
    return out;
  };
  const auto find_span = [&](const char* name) {
    return find_event(name, "X", r.trace_id);
  };

  const Span submit = find_span("svc.submit");
  const Span queue_wait = find_span("svc.queue_wait");
  const Span hydrate = find_span("svc.hydrate");
  const Span step = find_span("svc.step");
  ASSERT_NE(submit.args, nullptr);
  ASSERT_NE(queue_wait.args, nullptr);
  ASSERT_NE(hydrate.args, nullptr);
  ASSERT_NE(step.args, nullptr);

  // submit is the root; queue wait and hydrate hang off it; the step ran
  // inside the hydrate scope. One request, one connected tree.
  EXPECT_EQ(submit.parent, 0u);
  EXPECT_EQ(queue_wait.parent, submit.span_id);
  EXPECT_EQ(hydrate.parent, submit.span_id);
  EXPECT_EQ(step.parent, hydrate.span_id);

  // The step records why it ran where it did: the floor the scheduler
  // chose, the governor floor it started from, and the budget it saw (−1
  // without a deadline).
  const auto arg = [](const Span& span, const char* name) {
    const JsonValue* v = span.args->find(name);
    return v == nullptr ? -2.0 : v->as_number();
  };
  EXPECT_EQ(arg(step, "tier"), static_cast<double>(r.applied_tier));
  EXPECT_EQ(arg(step, "floor"), static_cast<double>(r.tier_floor));
  EXPECT_EQ(arg(step, "governor_floor"), 0.0);  // governor off
  EXPECT_EQ(arg(step, "budget_s"), -1.0);

  const Span timed_step = find_event("svc.step", "X", timed.trace_id);
  ASSERT_NE(timed_step.args, nullptr);
  EXPECT_EQ(arg(timed_step, "tier"), static_cast<double>(timed.applied_tier));
  EXPECT_EQ(arg(timed_step, "floor"), static_cast<double>(timed.tier_floor));
  EXPECT_GT(arg(timed_step, "budget_s"), 0.0);
  EXPECT_LE(arg(timed_step, "budget_s"), 30.0);

  // A shed request's instant carries the budget no tier fitted: by the
  // time the pump saw it, its 1 ns deadline had passed.
  const Span shed_instant = find_event("svc.shed", "i", shed.trace_id);
  ASSERT_NE(shed_instant.args, nullptr);
  ASSERT_NE(shed_instant.args->find("value"), nullptr);
  EXPECT_LT(shed_instant.args->find("value")->as_number(), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, LruEvictionAndRestoreAreInvisibleInTheNumbers) {
  const core::EvParams params;
  const auto profile = test_profile(20);
  const std::string dir = fresh_dir("svc_evict");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  options.resident_per_shard = 2;  // 5 vehicles → constant LRU churn

  std::vector<StepTrace> refs;
  for (std::uint64_t v = 0; v < 5; ++v)
    refs.push_back(serial_reference(params, profile, options, v));

  rt::ThreadPool pool(4);
  SessionService service(params, profile, options, pool);
  bool saw_restore = false;
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::uint64_t v = 0; v < 5; ++v) {
      const StepResult r = service.submit_step(v).get();
      EXPECT_EQ(r.step_index, round);
      saw_restore = saw_restore || r.restored_from_disk;
      expect_matches_reference(refs[v], r);
    }
  }
  EXPECT_TRUE(saw_restore);
  const svc::ServiceStats stats = service.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.restores, 0u);
  EXPECT_LE(stats.in_memory, 2u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, KillAndRestartResumesEverySessionByteIdentically) {
  const core::EvParams params;
  const auto profile = test_profile(20);
  const std::string dir = fresh_dir("svc_restart");
  ServiceOptions options = base_options(params, dir);
  options.shards = 2;
  options.store.sync = svc::SyncPolicy::kAlways;  // the durability claim

  std::vector<StepTrace> refs;
  for (std::uint64_t v = 0; v < 3; ++v)
    refs.push_back(serial_reference(params, profile, options, v));

  rt::ThreadPool pool(4);
  {
    SessionService service(params, profile, options, pool);
    for (std::size_t step = 0; step < 6; ++step)
      for (std::uint64_t v = 0; v < 3; ++v)
        expect_matches_reference(refs[v], service.submit_step(v).get());
    service.persist_all();
    EXPECT_EQ(service.stats().in_memory, 0u);
  }  // destruction after persist_all == graceful shutdown

  SessionService service(params, profile, options, pool);
  EXPECT_EQ(service.recovered_sessions(), 3u);
  EXPECT_EQ(service.tracked_sessions(), 3u);
  for (std::uint64_t v = 0; v < 3; ++v) {
    const StepResult r = service.submit_step(v).get();
    EXPECT_TRUE(r.restored_from_disk);
    EXPECT_FALSE(r.created);
    EXPECT_EQ(r.step_index, 6u);
    expect_matches_reference(refs[v], r);
  }
  // Drive vehicle 0 to the end of its profile: remaining steps keep
  // matching, then the session retires from service and store alike.
  for (std::size_t step = 7; step < profile.size(); ++step)
    expect_matches_reference(refs[0], service.submit_step(0).get());
  const StepResult finished = service.submit_step(0).get();
  EXPECT_EQ(finished.status, StepStatus::kFinished);
  EXPECT_EQ(service.tracked_sessions(), 2u);
  EXPECT_FALSE(service.store().load(0).has_value());
  std::filesystem::remove_all(dir);
}

TEST(SessionService, CrashWithoutPersistRecreatesDeterministically) {
  const core::EvParams params;
  const auto profile = test_profile(16);
  const std::string dir = fresh_dir("svc_crash");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  const StepTrace ref = serial_reference(params, profile, options, 42);

  rt::ThreadPool pool(2);
  {
    SessionService service(params, profile, options, pool);
    for (std::size_t step = 0; step < 4; ++step)
      expect_matches_reference(ref, service.submit_step(42).get());
  }  // destructor == crash: the hydrated session is lost, nothing persisted

  SessionService service(params, profile, options, pool);
  EXPECT_EQ(service.recovered_sessions(), 0u);
  // The vehicle comes back as a fresh deterministic step-0 session and
  // replays the identical numbers — that is what makes "never persisted"
  // an acceptable crash outcome.
  const StepResult r = service.submit_step(42).get();
  EXPECT_TRUE(r.created);
  EXPECT_EQ(r.step_index, 0u);
  expect_matches_reference(ref, r);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, FaultInjectedSessionsSurviveEvictionAndRestart) {
  const core::EvParams params;
  const auto profile = test_profile(20);
  const std::string dir = fresh_dir("svc_faults");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;
  options.resident_per_shard = 1;  // every alternation evicts
  options.fault_specs = {
      {sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout, 0.10, 0.0, 3},
      {sim::FaultSignal::kSoc, sim::FaultKind::kSpike, 0.05, 20.0, 1},
  };
  options.supervisor.fdi.enabled = true;

  std::vector<StepTrace> refs;
  for (std::uint64_t v = 0; v < 2; ++v)
    refs.push_back(serial_reference(params, profile, options, v));

  rt::ThreadPool pool(2);
  {
    SessionService service(params, profile, options, pool);
    for (std::size_t step = 0; step < 8; ++step)
      for (std::uint64_t v = 0; v < 2; ++v)
        expect_matches_reference(refs[v], service.submit_step(v).get());
    EXPECT_GT(service.stats().evictions, 0u);
  }  // crash; at least the evicted vehicle is on disk

  SessionService service(params, profile, options, pool);
  EXPECT_GE(service.recovered_sessions(), 1u);
  // Whatever each vehicle's recovery path is — disk restore or
  // deterministic recreation — every replayed step index must agree with
  // the uninterrupted reference, fault streams included.
  for (std::size_t step = 0; step < 6; ++step)
    for (std::uint64_t v = 0; v < 2; ++v)
      expect_matches_reference(refs[v], service.submit_step(v).get());
  std::filesystem::remove_all(dir);
}

TEST(SessionService, FinishedVehicleStaysFinished) {
  const core::EvParams params;
  const auto profile = test_profile(6);
  const std::string dir = fresh_dir("svc_finished");
  ServiceOptions options = base_options(params, dir);
  options.shards = 1;

  rt::ThreadPool pool(2);
  SessionService service(params, profile, options, pool);
  for (std::size_t step = 0; step < profile.size(); ++step)
    ASSERT_EQ(service.submit_step(7).get().status, StepStatus::kOk);
  ASSERT_EQ(service.submit_step(7).get().status, StepStatus::kFinished);
  const svc::ServiceStats before = service.stats();
  EXPECT_EQ(service.tracked_sessions(), 0u);
  // A finished vehicle must not silently restart at its deterministic
  // step-0 state: further requests keep reporting kFinished, mint no new
  // session, and leave the accounting untouched.
  for (int i = 0; i < 3; ++i) {
    const StepResult r = service.submit_step(7).get();
    EXPECT_EQ(r.status, StepStatus::kFinished);
    EXPECT_FALSE(r.created);
  }
  const svc::ServiceStats after = service.stats();
  EXPECT_EQ(after.creates, before.creates);
  EXPECT_EQ(after.finished, before.finished);
  EXPECT_EQ(service.tracked_sessions(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SessionService, SubmitsRacingPersistAllAndShutdownStaySafe) {
  // Regression for two shutdown-order races: the pump idle handoff vs
  // drain()'s predicate (use-after-free at destruction) and persist_all()
  // sweeping pump-only resident state while submits race in. Under TSan
  // (CI leg) this test is the proof; elsewhere it checks that every
  // future resolves and the admission accounting stays coherent.
  const core::EvParams params;
  const auto profile = test_profile(40);
  const std::string dir = fresh_dir("svc_race");
  ServiceOptions options = base_options(params, dir);
  options.shards = 2;
  options.resident_per_shard = 2;  // persist_all always has blobs to sweep

  rt::ThreadPool pool(4);
  std::vector<std::future<StepResult>> pending;
  {
    SessionService service(params, profile, options, pool);
    constexpr int kThreads = 3;
    constexpr int kStepsPerThread = 12;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&service, t] {
        for (int i = 0; i < kStepsPerThread; ++i) {
          const StepResult r =
              service.submit_step(static_cast<std::uint64_t>(t)).get();
          // A submit racing persist_all's quiesce window is rejected;
          // anything else must be a clean step.
          EXPECT_TRUE(r.status == StepStatus::kOk ||
                      r.status == StepStatus::kRejected);
        }
      });
    }
    for (int i = 0; i < 4; ++i) {
      service.persist_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& thread : submitters) thread.join();

    const svc::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
    EXPECT_EQ(stats.deadline_misses, 0u);

    // Destruction under load: enqueue a burst of fresh vehicles and tear
    // the service down while its pumps are busy.
    for (std::uint64_t v = 100; v < 124; ++v)
      pending.push_back(service.submit_step(v));
  }  // destructor: stopping flag + drain, with pumps mid-flight
  for (auto& future : pending) {
    const StepResult r = future.get();
    EXPECT_TRUE(r.status == StepStatus::kOk ||
                r.status == StepStatus::kRejected);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace evc
