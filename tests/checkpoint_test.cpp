// Crash-safe checkpointing: the typed binary serializer, the validating
// envelope, and byte-identical kill-and-resume of a full simulation
// session (plant + controller + fault-injector RNG + FDI state).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault_injection.hpp"
#include "util/serialize.hpp"

namespace evc {
namespace {

// --- Typed binary serializer ---

TEST(Serialize, RoundTripsEveryType) {
  BinaryWriter w;
  w.write_bool(true);
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_f64(-1.25e-300);
  const std::string with_null("ab\0cd", 5);
  w.write_string(with_null);
  w.write_f64_vec({0.1, -0.2, 1e300});
  w.write_size_vec({0, 1, std::size_t(-1)});
  w.section("end");

  const std::string bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_EQ(r.read_bool(), true);
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_f64(), -1.25e-300);
  EXPECT_EQ(r.read_string(), with_null);
  EXPECT_EQ(r.read_f64_vec(), (std::vector<double>{0.1, -0.2, 1e300}));
  EXPECT_EQ(r.read_size_vec(), (std::vector<std::size_t>{0, 1, std::size_t(-1)}));
  r.expect_section("end");
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, DoubleRoundTripIsBitExactIncludingNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  BinaryWriter w;
  w.write_f64(nan);
  w.write_f64(inf);
  w.write_f64(-0.0);
  w.write_f64(tiny);
  const std::string bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_TRUE(std::isnan(r.read_f64()));
  EXPECT_EQ(r.read_f64(), inf);
  EXPECT_TRUE(std::signbit(r.read_f64()));
  EXPECT_EQ(r.read_f64(), tiny);
}

TEST(Serialize, TypeTagMismatchThrows) {
  BinaryWriter w;
  w.write_f64(1.0);
  const std::string bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_THROW(r.read_u64(), SerializationError);
}

TEST(Serialize, SectionNameMismatchThrows) {
  BinaryWriter w;
  w.section("controller");
  const std::string bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_THROW(r.expect_section("plant"), SerializationError);
}

TEST(Serialize, TruncatedBufferThrows) {
  BinaryWriter w;
  w.write_f64(3.14);
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 4);
  BinaryReader r(bytes);
  EXPECT_THROW(r.read_f64(), SerializationError);
}

// --- Checkpoint envelope ---

TEST(CheckpointEnvelope, EncodeDecodeRoundTrips) {
  const std::string payload("arbitrary \0 binary \xff payload", 28);
  const sim::Checkpoint ckpt = sim::Checkpoint::wrap(payload);
  const sim::Checkpoint back = sim::Checkpoint::decode(ckpt.encode());
  EXPECT_EQ(back.payload(), payload);
}

TEST(CheckpointEnvelope, RejectsBadMagic) {
  std::string bytes = sim::Checkpoint::wrap("payload").encode();
  bytes[0] = 'X';
  EXPECT_THROW(sim::Checkpoint::decode(bytes), SerializationError);
}

TEST(CheckpointEnvelope, RejectsVersionSkew) {
  std::string bytes = sim::Checkpoint::wrap("payload").encode();
  bytes[8] = static_cast<char>(bytes[8] + 1);  // u32 version after magic
  EXPECT_THROW(sim::Checkpoint::decode(bytes), SerializationError);
}

TEST(CheckpointEnvelope, RejectsTruncation) {
  const std::string bytes = sim::Checkpoint::wrap("payload").encode();
  EXPECT_THROW(sim::Checkpoint::decode(bytes.substr(0, bytes.size() - 1)),
               SerializationError);
  EXPECT_THROW(sim::Checkpoint::decode(bytes.substr(0, 10)),
               SerializationError);
}

TEST(CheckpointEnvelope, RejectsFlippedPayloadBit) {
  const std::string payload(64, 'p');
  std::string bytes = sim::Checkpoint::wrap(payload).encode();
  bytes[bytes.size() - 7] ^= 0x40;  // corrupt one payload byte
  EXPECT_THROW(sim::Checkpoint::decode(bytes), SerializationError);
}

TEST(CheckpointEnvelope, FileRoundTripAndOverwrite) {
  const std::string path = "checkpoint_test_envelope.bin";
  sim::Checkpoint::wrap("first").write_file(path);
  sim::Checkpoint::wrap("second — atomically replaces").write_file(path);
  const sim::Checkpoint back = sim::Checkpoint::read_file(path);
  EXPECT_EQ(back.payload(), "second — atomically replaces");
  std::remove(path.c_str());
}

// --- Session kill-and-resume ---

core::SimulationOptions faulted_options(sim::FaultInjector* injector) {
  core::SimulationOptions opts;
  opts.record_traces = true;
  opts.fault_injector = injector;
  return opts;
}

std::vector<sim::FaultSpec> test_schedule() {
  return {
      {sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout, 0.05, 0.0, 3},
      {sim::FaultSignal::kOutsideTemp, sim::FaultKind::kSpike, 0.03, 30.0, 1},
      {sim::FaultSignal::kSoc, sim::FaultKind::kStuckAt, 0.02, 150.0, 5},
  };
}

void expect_same_traces(const core::SimulationResult& a,
                        const core::SimulationResult& b) {
  ASSERT_EQ(a.recorder.channels(), b.recorder.channels());
  for (const std::string& ch : a.recorder.channels()) {
    const auto& va = a.recorder.values(ch);
    const auto& vb = b.recorder.values(ch);
    ASSERT_EQ(va.size(), vb.size()) << ch;
    for (std::size_t i = 0; i < va.size(); ++i)
      ASSERT_EQ(va[i], vb[i]) << ch << " diverges at sample " << i;
  }
  EXPECT_EQ(a.metrics.final_soc_percent, b.metrics.final_soc_percent);
  EXPECT_EQ(a.metrics.hvac_energy_j, b.metrics.hvac_energy_j);
  EXPECT_EQ(a.metrics.delta_soh_percent, b.metrics.delta_soh_percent);
  EXPECT_EQ(a.metrics.comfort.rms_error_c, b.metrics.comfort.rms_error_c);
}

TEST(SessionCheckpoint, ResumeIsByteIdenticalWithFaultsFdiAndMpc) {
  // The ISSUE acceptance criterion: N + checkpoint + restore + M steps
  // equals N + M uninterrupted steps bit-for-bit — including the MPC's
  // warm-start caches, the FDI layer mid-episode, and the fault
  // injector's RNG streams.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 160);
  core::MpcOptions mpc_options;
  mpc_options.accessory_power_w = params.vehicle.accessory_power_w;
  ctl::SupervisorOptions sup_options;
  sup_options.fdi.enabled = true;

  // Reference: uninterrupted.
  core::SimulationResult reference;
  {
    auto controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    sim::FaultInjector injector(test_schedule(), 99);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    session.run_to_completion();
    reference = session.finish();
  }

  // Interrupted: half-way checkpoint into a string, then a completely
  // fresh stack (controller, injector, session) resumes from it.
  std::string encoded;
  {
    auto controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    sim::FaultInjector injector(test_schedule(), 99);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    while (session.step_index() < 80) session.advance();
    encoded = session.checkpoint();
  }
  core::SimulationResult resumed;
  {
    auto controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    sim::FaultInjector injector(test_schedule(), 99);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    session.restore(encoded);
    EXPECT_EQ(session.step_index(), 80u);
    session.run_to_completion();
    resumed = session.finish();
  }

  expect_same_traces(reference, resumed);
}

TEST(SessionCheckpoint, MpcCheckpointStaysSmallOnCondensedBackend) {
  // The condensed QP path keeps no cross-solve state, so an MPC session's
  // checkpoint carries the warm-start plan, duals, telemetry and a few
  // steps of traces — kilobytes, not the ~430 KB of dense linearization
  // snapshots (E, H, A) the format stored before v5.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 60);
  auto controller = core::make_mpc_controller(params);
  core::SimulationSession session(params, *controller, profile, {});
  while (controller->stats().plans < 3) session.advance();
  ASSERT_GT(controller->stats().solver.condensed_solves, 0u);
  EXPECT_LT(session.checkpoint().size(), 16u * 1024u);
}

TEST(SessionCheckpoint, FileRoundTripMatchesUninterruptedRun) {
  // Cheap controller (On/Off) so the file path variant stays fast.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 400);
  const std::string path = "checkpoint_test_session.bin";

  core::SimulationResult reference;
  {
    auto controller = core::make_onoff_controller(params);
    core::SimulationSession session(params, *controller, profile, {});
    session.run_to_completion();
    reference = session.finish();
  }

  {
    auto controller = core::make_onoff_controller(params);
    core::SimulationSession session(params, *controller, profile, {});
    while (session.step_index() < 123) session.advance();
    session.checkpoint_to_file(path);
  }
  core::SimulationResult resumed;
  {
    auto controller = core::make_onoff_controller(params);
    core::SimulationSession session(params, *controller, profile, {});
    session.restore_from_file(path);
    session.run_to_completion();
    resumed = session.finish();
  }
  std::remove(path.c_str());

  expect_same_traces(reference, resumed);
}

TEST(SessionCheckpoint, RepeatedKillsStillMatchUninterrupted) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 300);
  // The fuzzy controller is unsupervised — no input sanitation — so the
  // schedule sticks to finite-valued faults (no NaN dropouts).
  const std::vector<sim::FaultSpec> finite_faults = {
      {sim::FaultSignal::kOutsideTemp, sim::FaultKind::kSpike, 0.04, 8.0, 2},
      {sim::FaultSignal::kSoc, sim::FaultKind::kBias, 0.03, -2.0, 6},
  };

  core::SimulationResult reference;
  {
    auto controller = core::make_fuzzy_controller(params);
    sim::FaultInjector injector(finite_faults, 7);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    session.run_to_completion();
    reference = session.finish();
  }

  // Kill and rebuild the whole stack every 60 steps.
  std::string encoded;
  {
    auto controller = core::make_fuzzy_controller(params);
    sim::FaultInjector injector(finite_faults, 7);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    encoded = session.checkpoint();
  }
  core::SimulationResult resumed;
  for (int segment = 0;; ++segment) {
    auto controller = core::make_fuzzy_controller(params);
    sim::FaultInjector injector(finite_faults, 7);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    session.restore(encoded);
    const std::size_t stop =
        std::min<std::size_t>(session.step_index() + 60, profile.size());
    while (session.step_index() < stop) session.advance();
    if (session.done()) {
      resumed = session.finish();
      break;
    }
    encoded = session.checkpoint();
    ASSERT_LT(segment, 10) << "kill-and-resume loop failed to terminate";
  }

  expect_same_traces(reference, resumed);
}

TEST(SessionCheckpoint, ConfigMismatchesAreRefused) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 60);

  std::string encoded;
  {
    auto controller = core::make_onoff_controller(params);
    sim::FaultInjector injector(test_schedule(), 5);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    while (session.step_index() < 20) session.advance();
    encoded = session.checkpoint();
  }

  {
    // Different fault-spec count: refused, not silently misassigned.
    auto controller = core::make_onoff_controller(params);
    sim::FaultInjector injector(
        {{sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout, 0.05, 0.0,
          3}},
        5);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    EXPECT_THROW(session.restore(encoded), SerializationError);
  }
  {
    // Checkpoint carries fault state; restoring into a fault-free session
    // must be refused too.
    auto controller = core::make_onoff_controller(params);
    core::SimulationSession session(params, *controller, profile, {});
    EXPECT_THROW(session.restore(encoded), SerializationError);
  }
  {
    // A profile shorter than the checkpointed step index is a config error.
    const auto short_profile = profile.window(0, 10);
    auto controller = core::make_onoff_controller(params);
    sim::FaultInjector injector(test_schedule(), 5);
    core::SimulationSession session(params, *controller, short_profile,
                                    faulted_options(&injector));
    EXPECT_THROW(session.restore(encoded), SerializationError);
  }
}

TEST(SessionCheckpoint, SupervisorTierCountMismatchIsRefused) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 30);

  std::string encoded;
  {
    auto controller = core::make_supervised_mpc_controller(params);
    core::SimulationSession session(params, *controller, profile, {});
    while (session.step_index() < 5) session.advance();
    encoded = session.checkpoint();
  }
  // A single-tier controller cannot absorb a four-tier checkpoint.
  auto controller = core::make_onoff_controller(params);
  core::SimulationSession session(params, *controller, profile, {});
  EXPECT_THROW(session.restore(encoded), SerializationError);
}

}  // namespace
}  // namespace evc
