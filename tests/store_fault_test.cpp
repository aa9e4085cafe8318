// Storage-fault behavior of the session store and service: typed errors
// for flaky disks, quarantine/salvage/drop for corrupt checkpoints, WAL
// torn-frame containment, compaction, the offline fsck scrub, and the
// JSON service-config surface.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/checkpoint.hpp"
#include "svc/config.hpp"
#include "svc/fsck.hpp"
#include "svc/session_service.hpp"
#include "svc/session_store.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/io/vfs.hpp"
#include "util/json_parse.hpp"

namespace evc {
namespace {

using io::MemVfs;
using svc::SessionStore;
using svc::SessionStoreOptions;
using svc::SyncPolicy;

std::string blob(std::uint64_t vehicle, std::uint64_t step) {
  const std::string payload =
      "state v=" + std::to_string(vehicle) + " step=" + std::to_string(step) +
      " pad:0123456789abcdef0123456789abcdef";
  return sim::Checkpoint::wrap(payload).encode();
}

SessionStoreOptions mem_opts(MemVfs& vfs, const std::string& dir) {
  SessionStoreOptions opts;
  opts.dir = dir;
  opts.sync = SyncPolicy::kAlways;
  opts.vfs = &vfs;
  return opts;
}

/// Flip the last byte of the file (payload tail → checksum mismatch).
void corrupt_tail(MemVfs& vfs, const std::string& path) {
  vfs.corrupt_byte(path, vfs.peek(path).size() - 1, 0x40);
}

/// Rewrite the file with its format-version field bumped: an intact
/// envelope from "another build" (magic 8 bytes, tag byte, u32 LE version
/// at offset 9 — the version is deliberately outside the checksum).
void skew_version(MemVfs& vfs, const std::string& path) {
  std::string bytes = vfs.peek(path);
  ASSERT_GT(bytes.size(), 9u);
  bytes[9] = static_cast<char>(bytes[9] + 1);
  auto file = vfs.open(path, io::OpenMode::kWrite);
  file->write(bytes.data(), bytes.size());
  file->sync();
}

// --- persist under injected storage failures ---

TEST(StoreFaults, PersistEnospcIsTypedAndLeavesNoTornFile) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "sf_enospc"));

  MemVfs::Faults faults;
  faults.fail_at = static_cast<long long>(vfs.mutating_ops()) + 1;  // the
  faults.fail_errno = ENOSPC;  // checkpoint data write (after the tmp open)
  faults.fail_short_write = true;
  vfs.set_faults(faults);
  try {
    store.persist(1, 1, blob(1, 1));
    FAIL() << "scheduled ENOSPC did not surface";
  } catch (const sim::CheckpointIoError& e) {
    EXPECT_EQ(e.err(), ENOSPC);
  }

  // No torn file under the real name, no leaked temp, store unchanged.
  EXPECT_FALSE(vfs.exists("sf_enospc/v1.ckpt"));
  EXPECT_FALSE(vfs.exists("sf_enospc/v1.ckpt.tmp"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.persisted_step(1).has_value());
  // The directory is still scannable and the store still serviceable.
  EXPECT_EQ(vfs.scan("sf_enospc"), (std::vector<std::string>{"manifest.wal"}));
  store.persist(1, 1, blob(1, 1));
  EXPECT_EQ(store.load(1), std::optional<std::string>(blob(1, 1)));
}

TEST(StoreFaults, ManifestShortWriteNeverPoisonsLaterRecords) {
  MemVfs vfs;
  {
    SessionStore store(mem_opts(vfs, "sf_wal"));
    store.persist(1, 1, blob(1, 1));

    // Second persist of v1: rename, tmp open, write, fsync, rename,
    // dir fsync, then op base+6 = the manifest append — tear it.
    MemVfs::Faults faults;
    faults.fail_at = static_cast<long long>(vfs.mutating_ops()) + 6;
    faults.fail_errno = EIO;
    faults.fail_short_write = true;
    vfs.set_faults(faults);
    EXPECT_THROW(store.persist(1, 2, blob(1, 2)), sim::CheckpointIoError);
    vfs.set_faults(MemVfs::Faults{});

    // The manifest now carries a torn frame at its tail. The next append
    // must truncate it first — otherwise this record would sit behind
    // garbage and silently vanish at replay.
    store.persist(2, 5, blob(2, 5));
    EXPECT_EQ(store.size(), 2u);
  }
  SessionStore reopened(mem_opts(vfs, "sf_wal"));
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.stats().torn_tail_bytes, 0u);  // truncated pre-crash
  // v1's manifest step is still 1 (the step-2 record never landed), but
  // the step-2 checkpoint file was already durable before the append —
  // the file, not the manifest, is the state.
  EXPECT_EQ(reopened.persisted_step(1), std::optional<std::uint64_t>(1));
  EXPECT_EQ(reopened.persisted_step(2), std::optional<std::uint64_t>(5));
  EXPECT_EQ(reopened.load(1), std::optional<std::string>(blob(1, 2)));
  EXPECT_EQ(reopened.load(2), std::optional<std::string>(blob(2, 5)));
}

// --- corruption containment: quarantine, salvage, drop ---

TEST(StoreFaults, CorruptCurrentIsQuarantinedAndPrevSalvaged) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "sf_salvage"));
  store.persist(1, 1, blob(1, 1));
  store.persist(1, 2, blob(1, 2));  // rotates step-1 bytes to .prev
  corrupt_tail(vfs, store.checkpoint_path(1));

  const auto loaded = store.load(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, blob(1, 1));  // served from the .prev generation

  const auto stats = store.stats();
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.salvaged, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  // The damaged generation is evidence, not garbage: one quarantined file.
  EXPECT_EQ(vfs.scan(store.quarantine_dir()).size(), 1u);
  // Salvage reinstated clean bytes under the live name: the next load is
  // ordinary.
  EXPECT_EQ(store.load(1), std::optional<std::string>(blob(1, 1)));
  EXPECT_EQ(store.stats().corrupt, 1u);
  // The session is still alive at its last recorded step.
  EXPECT_EQ(store.persisted_step(1), std::optional<std::uint64_t>(2));
}

TEST(StoreFaults, MissingCurrentFallsBackToPrevWithoutQuarantine) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "sf_missing"));
  store.persist(1, 1, blob(1, 1));
  store.persist(1, 2, blob(1, 2));
  // Simulate the crash window between the .prev rotation and the new
  // write: the current generation is simply gone, nothing is damaged.
  vfs.remove(store.checkpoint_path(1));

  EXPECT_EQ(store.load(1), std::optional<std::string>(blob(1, 1)));
  const auto stats = store.stats();
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.salvaged, 1u);
}

TEST(StoreFaults, BothGenerationsBadDropsTheSessionDurably) {
  MemVfs vfs;
  {
    SessionStore store(mem_opts(vfs, "sf_drop"));
    store.persist(1, 1, blob(1, 1));
    store.persist(1, 2, blob(1, 2));
    store.persist(9, 4, blob(9, 4));  // bystander: must survive untouched
    corrupt_tail(vfs, store.checkpoint_path(1));
    corrupt_tail(vfs, store.checkpoint_path(1) + ".prev");

    EXPECT_EQ(store.load(1), std::nullopt);
    const auto stats = store.stats();
    EXPECT_EQ(stats.corrupt, 2u);
    EXPECT_EQ(stats.quarantined, 2u);
    EXPECT_EQ(stats.salvaged, 0u);
    EXPECT_EQ(stats.dropped, 1u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(vfs.scan(store.quarantine_dir()).size(), 2u);
  }
  // The drop was recorded in the manifest: a restart does not resurrect a
  // session whose every generation sits in quarantine.
  SessionStore reopened(mem_opts(vfs, "sf_drop"));
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.load(1), std::nullopt);
  EXPECT_EQ(reopened.load(9), std::optional<std::string>(blob(9, 4)));
}

TEST(StoreFaults, VersionSkewIsRefusedNotQuarantined) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "sf_skew"));
  store.persist(1, 1, blob(1, 1));
  skew_version(vfs, store.checkpoint_path(1));

  // An intact checkpoint from another build is a loud refusal, never
  // "corruption": no quarantine, no salvage, no drop.
  try {
    store.load(1);
    FAIL() << "version skew must throw";
  } catch (const sim::CorruptStateError&) {
    FAIL() << "version skew must not be classified as corruption";
  } catch (const SerializationError&) {
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(StoreFaults, RetireRemovesBothGenerations) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "sf_retire"));
  store.persist(1, 1, blob(1, 1));
  store.persist(1, 2, blob(1, 2));
  store.retire(1);
  EXPECT_FALSE(vfs.exists("sf_retire/v1.ckpt"));
  EXPECT_FALSE(vfs.exists("sf_retire/v1.ckpt.prev"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.load(1), std::nullopt);
}

// --- WAL compaction ---

TEST(StoreFaults, CompactionBoundsTheManifestAndPreservesState) {
  MemVfs vfs;
  SessionStoreOptions opts = mem_opts(vfs, "sf_compact");
  opts.compact_every = 4;
  {
    SessionStore store(opts);
    store.persist(1, 1, blob(1, 1));
    store.persist(2, 1, blob(2, 1));
    store.persist(1, 2, blob(1, 2));
    const std::size_t before = vfs.peek(store.manifest_path()).size();
    store.persist(2, 2, blob(2, 2));  // fourth append → automatic compaction
    EXPECT_EQ(store.stats().compactions, 1u);
    // Four appends collapsed to one record per live session.
    EXPECT_LT(vfs.peek(store.manifest_path()).size(), before);

    store.persist(2, 2, blob(2, 2));
    store.persist(1, 3, blob(1, 3));
    store.compact();  // explicit
    EXPECT_EQ(store.stats().compactions, 2u);
    EXPECT_FALSE(vfs.exists("sf_compact/manifest.cmp"));  // swapped away
  }
  SessionStore reopened(opts);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.persisted_step(1), std::optional<std::uint64_t>(3));
  EXPECT_EQ(reopened.persisted_step(2), std::optional<std::uint64_t>(2));
  EXPECT_EQ(reopened.load(1), std::optional<std::string>(blob(1, 3)));
  EXPECT_EQ(reopened.load(2), std::optional<std::string>(blob(2, 2)));
}

// --- offline fsck scrub ---

TEST(Fsck, CleanStoreIsClean) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "fsck_clean"));
  store.persist(1, 1, blob(1, 1));
  store.persist(1, 2, blob(1, 2));  // leaves a .prev backup
  store.persist(2, 1, blob(2, 1));

  const svc::FsckReport report = svc::fsck_store(vfs, "fsck_clean");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.live_sessions, 2u);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.backups, 1u);
  EXPECT_EQ(report.corrupt, 0u);
  EXPECT_EQ(report.torn_tail_bytes, 0u);
}

TEST(Fsck, FlagsCorruptionSkewMissingOrphanAndTemps) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "fsck_dirty"));
  store.persist(1, 1, blob(1, 1));
  store.persist(1, 2, blob(1, 2));
  store.persist(2, 1, blob(2, 1));
  store.persist(3, 1, blob(3, 1));
  store.persist(4, 1, blob(4, 1));

  corrupt_tail(vfs, store.checkpoint_path(1));      // corrupt, salvageable
  skew_version(vfs, store.checkpoint_path(2));      // other-build envelope
  vfs.remove(store.checkpoint_path(3));             // live but no file left
  // An orphan: a valid checkpoint no manifest record points at.
  sim::Checkpoint::wrap("stray").write_file(vfs, "fsck_dirty/v99.ckpt");
  // A leftover temp from a crashed atomic write.
  auto tmp = vfs.open("fsck_dirty/v5.ckpt.tmp", io::OpenMode::kWrite);
  tmp->write("partial", 7);
  tmp.reset();

  const svc::FsckReport report = svc::fsck_store(vfs, "fsck_dirty");
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(report.skew, 1u);
  EXPECT_EQ(report.missing, 1u);   // vehicle 3: no loadable generation
  EXPECT_EQ(report.orphans, 1u);   // v99
  EXPECT_EQ(report.temps, 1u);     // v5.ckpt.tmp
  EXPECT_EQ(report.backups, 1u);   // v1.ckpt.prev (good bytes)
  EXPECT_EQ(report.ok, 1u);        // vehicle 4
  // Vehicle 1 is corrupt-but-salvageable: corrupt counts (scrub must exit
  // nonzero) yet it is not *missing* — .prev still loads.
  EXPECT_EQ(report.live_sessions, 4u);
}

TEST(Fsck, ReportsTornTailReadOnly) {
  MemVfs vfs;
  SessionStore store(mem_opts(vfs, "fsck_torn"));
  store.persist(1, 1, blob(1, 1));
  auto manifest = vfs.open(store.manifest_path(), io::OpenMode::kAppend);
  manifest->write("GARBAGE", 7);
  manifest.reset();
  const std::size_t size_before = vfs.peek(store.manifest_path()).size();

  const svc::FsckReport report = svc::fsck_store(vfs, "fsck_torn");
  EXPECT_EQ(report.torn_tail_bytes, 7u);
  EXPECT_TRUE(report.clean());  // a torn tail is a normal crash artifact
  EXPECT_EQ(report.manifest_records, 1u);
  // fsck is strictly read-only: it reported the tail, it did not cut it.
  EXPECT_EQ(vfs.peek(store.manifest_path()).size(), size_before);
}

// --- service-level fault handling (retry, backoff, salvage, containment) ---

drive::DriveProfile service_profile() {
  return drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
      .window(0, 32);
}

svc::ServiceOptions service_opts(const core::EvParams& params, MemVfs& vfs,
                                 const std::string& dir) {
  svc::ServiceOptions opts;
  opts.shards = 1;
  opts.store.dir = dir;
  opts.store.sync = SyncPolicy::kAlways;
  opts.store.vfs = &vfs;
  opts.io_backoff_s = 0.0;  // unit tests should not sleep
  opts.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  return opts;
}

TEST(ServiceFaults, RestoreRetriesExhaustThenSalvageOnRecovery) {
  MemVfs vfs;
  const core::EvParams params;
  const auto profile = service_profile();
  rt::ThreadPool pool(2);
  svc::ServiceOptions opts = service_opts(params, vfs, "svcf_restore");
  opts.restore_retries = 2;

  {
    svc::SessionService service(params, profile, opts, pool);
    EXPECT_EQ(service.submit_step(1).get().step_index, 0u);
    EXPECT_EQ(service.submit_step(1).get().step_index, 1u);
    service.persist_all();                              // generation @2
    EXPECT_EQ(service.submit_step(1).get().step_index, 2u);
    service.persist_all();  // rotates @2 to .prev, current resumes @3
  }

  svc::SessionService service(params, profile, opts, pool);
  EXPECT_EQ(service.recovered_sessions(), 1u);
  corrupt_tail(vfs, "svcf_restore/v1.ckpt");

  // Storage goes fully flaky: the salvage write fails on every retry, so
  // the restore propagates as a typed, retryable error to the caller.
  MemVfs::Faults faults;
  faults.fault_rate = 1.0;
  vfs.set_faults(faults);
  auto failing = service.submit_step(1);
  EXPECT_THROW(failing.get(), sim::CheckpointIoError);
  EXPECT_EQ(service.stats().restore_retries, opts.restore_retries);

  // Storage heals: the next request salvages the .prev generation and
  // resumes from the last good bytes (step 2, not the corrupted step 3).
  vfs.set_faults(MemVfs::Faults{});
  const auto result = service.submit_step(1).get();
  EXPECT_EQ(result.status, svc::StepStatus::kOk);
  EXPECT_TRUE(result.restored_from_disk);
  EXPECT_EQ(result.step_index, 2u);

  const auto store_stats = service.store().stats();
  EXPECT_EQ(store_stats.corrupt, 1u);
  EXPECT_EQ(store_stats.quarantined, 1u);
  EXPECT_EQ(store_stats.salvaged, 1u);
  EXPECT_EQ(service.stats().deadline_misses, 0u);
}

TEST(ServiceFaults, EvictionFailureKeepsSessionResident) {
  MemVfs vfs;
  const core::EvParams params;
  const auto profile = service_profile();
  rt::ThreadPool pool(2);
  svc::ServiceOptions opts = service_opts(params, vfs, "svcf_evict");
  opts.resident_per_shard = 1;
  opts.evict_retries = 1;

  svc::SessionService service(params, profile, opts, pool);
  EXPECT_EQ(service.submit_step(10).get().status, svc::StepStatus::kOk);

  MemVfs::Faults faults;
  faults.fault_rate = 1.0;
  vfs.set_faults(faults);
  // Admitting vehicle 11 overflows the resident cap; the eviction write
  // fails every attempt — the request itself must still succeed, and the
  // victim must stay resident rather than be lost.
  const auto result = service.submit_step(11).get();
  EXPECT_EQ(result.status, svc::StepStatus::kOk);
  auto stats = service.stats();
  EXPECT_EQ(stats.evict_failures, 1u);
  EXPECT_EQ(stats.evict_retries, 2u);  // 1 + evict_retries attempts
  EXPECT_EQ(stats.in_memory, 2u);
  EXPECT_EQ(service.store().size(), 0u);

  // Storage heals: the next overflow drains the backlog back to the cap.
  vfs.set_faults(MemVfs::Faults{});
  EXPECT_EQ(service.submit_step(12).get().status, svc::StepStatus::kOk);
  stats = service.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.in_memory, 1u);
  EXPECT_GE(service.store().size(), 1u);
}

// --- JSON service-config surface ---

TEST(ServiceConfig, OverlaysOnlyTheKeysPresent) {
  svc::ServiceOptions opts;
  svc::apply_service_config_json(opts, R"({
    "shards": 2, "queue_capacity": 9, "resident_per_shard": 17,
    "default_deadline_s": 0.05, "deadline_safety": 2.5,
    "evict_retries": 5, "restore_retries": 1, "io_backoff_s": 0.25,
    "seed": 99,
    "store": { "sync": "batched", "batch_every": 7, "compact_every": 11 }
  })");
  EXPECT_EQ(opts.shards, 2u);
  EXPECT_EQ(opts.queue_capacity, 9u);
  EXPECT_EQ(opts.resident_per_shard, 17u);
  EXPECT_EQ(opts.default_deadline_s, 0.05);
  EXPECT_EQ(opts.deadline_safety, 2.5);
  EXPECT_EQ(opts.evict_retries, 5u);
  EXPECT_EQ(opts.restore_retries, 1u);
  EXPECT_EQ(opts.io_backoff_s, 0.25);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.store.sync, SyncPolicy::kBatched);
  EXPECT_EQ(opts.store.batch_every, 7u);
  EXPECT_EQ(opts.store.compact_every, 11u);
  // Untouched keys keep their prior values.
  EXPECT_EQ(opts.ewma_alpha, 0.2);
  EXPECT_EQ(opts.retry_after_s, 0.005);
  // Each policy's printed name parses back to that policy.
  for (const SyncPolicy policy :
       {SyncPolicy::kAlways, SyncPolicy::kBatched, SyncPolicy::kNever}) {
    svc::apply_service_config_json(
        opts, std::string(R"({"store": {"sync": ")") +
                  svc::to_string(policy) + R"("}})");
    EXPECT_EQ(opts.store.sync, policy) << svc::to_string(policy);
  }
}

TEST(ServiceConfig, OverlaysSloAndFlightDumpKeys) {
  svc::ServiceOptions opts;
  svc::apply_service_config_json(opts, R"({
    "flight_dump_dir": "/tmp/flights",
    "slo": {
      "enabled": true,
      "latency_threshold_s": 0.125,
      "latency_rule": { "objective": 0.95, "fast_window": 8,
                        "slow_window": 64, "fast_burn_threshold": 9.5,
                        "slow_burn_threshold": 3.0, "clear_burn": 0.5,
                        "min_samples": 4 },
      "error_rule": { "objective": 0.99 }
    }
  })");
  EXPECT_EQ(opts.flight_dump_dir, "/tmp/flights");
  EXPECT_TRUE(opts.slo.enabled);
  EXPECT_EQ(opts.slo.latency_threshold_s, 0.125);
  EXPECT_EQ(opts.slo.latency_rule.objective, 0.95);
  EXPECT_EQ(opts.slo.latency_rule.fast_window, 8u);
  EXPECT_EQ(opts.slo.latency_rule.slow_window, 64u);
  EXPECT_EQ(opts.slo.latency_rule.fast_burn_threshold, 9.5);
  EXPECT_EQ(opts.slo.latency_rule.slow_burn_threshold, 3.0);
  EXPECT_EQ(opts.slo.latency_rule.clear_burn, 0.5);
  EXPECT_EQ(opts.slo.latency_rule.min_samples, 4u);
  // Partial rule overlays keep the defaults for the other knobs.
  EXPECT_EQ(opts.slo.error_rule.objective, 0.99);
  EXPECT_EQ(opts.slo.error_rule.fast_window, 32u);

  EXPECT_THROW(svc::apply_service_config_json(
                   opts, R"({"slo": {"latency_rule": {"objective": 1.5}}})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(
                   opts, R"({"slo": {"latency_rule": {"fast_window": 0}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      svc::apply_service_config_json(opts, R"({"slo": {"enables": true}})"),
      std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"slo": 3})"),
               std::invalid_argument);
  EXPECT_THROW(
      svc::apply_service_config_json(opts, R"({"flight_dump_dir": 7})"),
      std::invalid_argument);
}

TEST(ServiceConfig, RejectsUnknownKeysLoudly) {
  svc::ServiceOptions opts;
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"shard": 2})"),
               std::invalid_argument);
  EXPECT_THROW(
      svc::apply_service_config_json(opts, R"({"store": {"snc": "always"}})"),
      std::invalid_argument);
}

TEST(ServiceConfig, RejectsOutOfDomainValues) {
  svc::ServiceOptions opts;
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"shards": 0})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"shards": 2.5})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"ewma_alpha": 0})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"io_backoff_s": -1})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(
                   opts, R"({"store": {"sync": "sometimes"}})"),
               std::invalid_argument);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"([1,2,3])"),
               std::invalid_argument);
}

TEST(ServiceConfig, RejectsMalformedJson) {
  svc::ServiceOptions opts;
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"shards": })"),
               JsonParseError);
  EXPECT_THROW(svc::apply_service_config_json(opts, R"({"a": 1} trailing)"),
               JsonParseError);
}

}  // namespace
}  // namespace evc
