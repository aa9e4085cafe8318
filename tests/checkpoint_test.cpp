// Crash-safe checkpointing: the typed binary serializer, the validating
// envelope, and byte-identical kill-and-resume of a full simulation
// session (plant + controller + fault-injector RNG + FDI state).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
#include "util/random.hpp"
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
  try {
    r.expect_section("plant");
    ADD_FAILURE() << "a mismatched section name was accepted";
  } catch (const SerializationError& e) {
    EXPECT_STREQ(e.what(),
                 "serialization: expected section 'plant', found 'controller'");
  }
  BinaryReader prefix(bytes);
  EXPECT_THROW(prefix.expect_section("control"), SerializationError);
  BinaryReader truncated(std::string_view(bytes).substr(0, bytes.size() - 1));
  EXPECT_THROW(truncated.expect_section("controller"), SerializationError);
}

TEST(Serialize, TruncatedBufferThrows) {
  BinaryWriter w;
  w.write_f64(3.14);
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 4);
  BinaryReader r(bytes);
  EXPECT_THROW(r.read_f64(), SerializationError);
}

// One write of every value kind, against the bytes the out-of-line codec
// wrote before the fixed-width writes were inlined: the wire format is
// the checkpoint payload format, so it must not move.
TEST(Serialize, WireFormatMatchesGolden) {
  BinaryWriter w;
  w.section("golden");
  w.write_bool(true);
  w.write_bool(false);
  w.write_u8(0xA5);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_size(4096);
  w.write_f64(-1.5);
  w.write_f64(std::numeric_limits<double>::denorm_min());
  w.write_string(std::string("ev\0c", 4));
  w.write_f64_vec({0.25, -0.0});
  const double seq[1] = {1e300};
  w.write_f64_seq(seq, 1);
  w.write_size_vec({7, 0});

  static const char kGolden[] =
      "S" "s" "U\x06\0\0\0\0\0\0\0" "golden"      // section "golden"
      "b\x01"                                       // bool true
      "b\x00"                                       // bool false
      "c\xA5"                                       // u8
      "u\xEF\xBE\xAD\xDE"                           // u32
      "U\xEF\xCD\xAB\x89\x67\x45\x23\x01"           // u64
      "U\x00\x10\0\0\0\0\0\0"                       // size 4096
      "d\0\0\0\0\0\0\xF8\xBF"                       // f64 -1.5
      "d\x01\0\0\0\0\0\0\0"                         // f64 denorm_min
      "s" "U\x04\0\0\0\0\0\0\0" "ev\0c"             // string
      "D" "U\x02\0\0\0\0\0\0\0"                     // f64 vector of 2
      "d\0\0\0\0\0\0\xD0\x3F" "d\0\0\0\0\0\0\0\x80"
      "D" "U\x01\0\0\0\0\0\0\0"                     // f64 sequence of 1
      "d\x9C\x75\x00\x88\x3C\xE4\x37\x7E"
      "Z" "U\x02\0\0\0\0\0\0\0"                     // size vector of 2
      "U\x07\0\0\0\0\0\0\0" "U\0\0\0\0\0\0\0\0";
  const std::string golden(kGolden, sizeof(kGolden) - 1);
  ASSERT_EQ(golden.size(), 153u);
  EXPECT_EQ(w.bytes(), golden);
}

// Every fixed-width read either passes its one inline tag-and-bounds check
// or falls back to the checked path, which must name the error exactly as
// before: the wrong tag, the missing tag, or the short value.
TEST(Serialize, FixedWidthReadsRefuseWrongTagAndTruncation) {
  struct Kind {
    const char* what;
    char tag;
    std::size_t width;
    void (*read)(BinaryReader&);
  };
  const Kind kinds[] = {
      {"bool", 'b', 1, [](BinaryReader& r) { r.read_bool(); }},
      {"u8", 'c', 1, [](BinaryReader& r) { r.read_u8(); }},
      {"u32", 'u', 4, [](BinaryReader& r) { r.read_u32(); }},
      {"u64", 'U', 8, [](BinaryReader& r) { r.read_u64(); }},
      {"u64", 'U', 8, [](BinaryReader& r) { r.read_size(); }},
      {"f64", 'd', 8, [](BinaryReader& r) { r.read_f64(); }},
  };
  const auto error_of = [](const Kind& kind, const std::string& bytes) {
    BinaryReader r(bytes);
    try {
      kind.read(r);
    } catch (const SerializationError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.what);
    const std::string value(kind.width, '\0');
    // Both paths accept a well-formed value, at the end of the buffer or
    // before more bytes.
    EXPECT_EQ(error_of(kind, kind.tag + value), "no error");
    EXPECT_EQ(error_of(kind, kind.tag + value + "tail"), "no error");
    EXPECT_EQ(error_of(kind, 'x' + value),
              std::string("serialization: expected ") + kind.what +
                  " tag '" + kind.tag + "', found 'x'");
    EXPECT_EQ(error_of(kind, "x"),
              std::string("serialization: expected ") + kind.what +
                  " tag '" + kind.tag + "', found 'x'");
    EXPECT_EQ(error_of(kind, ""), "serialization: unexpected end of data");
    for (std::size_t n = 0; n < kind.width; ++n)
      EXPECT_EQ(error_of(kind, kind.tag + value.substr(0, n)),
                "serialization: truncated payload")
          << n << " of " << kind.width << " value bytes";
  }

  const std::string two("b\x02", 2);
  BinaryReader bad_bool(two);
  EXPECT_THROW(bad_bool.read_bool(), SerializationError);

  // Inside a vector, each element goes through the same checks.
  BinaryWriter w;
  w.write_f64_vec({1.0, 2.0});
  std::string bytes = w.take();
  bytes[1 + 9 + 9] = 'U';  // the second element's tag
  BinaryReader vec(bytes);
  try {
    vec.read_f64_vec();
    ADD_FAILURE() << "a vector element with the wrong tag was accepted";
  } catch (const SerializationError& e) {
    EXPECT_STREQ(e.what(), "serialization: expected f64 tag 'd', found 'U'");
  }
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

// Envelope layout: magic [0, 8), u32 version tag at 8 and value [9, 13),
// u64 length tag at 13 and value [14, 22), u64 checksum tag at 22 and
// value [23, 31), payload from 31.
constexpr std::size_t kVersionOffset = 9;
constexpr std::size_t kChecksumOffset = 23;
constexpr std::size_t kPayloadOffset = 31;

TEST(CheckpointEnvelope, RejectsVersionSkew) {
  std::string bytes = sim::Checkpoint::wrap("payload").encode();
  // An intact file of the previous format (v8, FNV-1a checksum) is version
  // skew, refused loudly but not quarantined as corrupt.
  const std::uint32_t previous = sim::kCheckpointFormatVersion - 1;
  std::memcpy(bytes.data() + kVersionOffset, &previous, sizeof(previous));
  try {
    sim::Checkpoint::decode(bytes);
    ADD_FAILURE() << "a previous-format envelope was accepted";
  } catch (const sim::CorruptStateError& e) {
    ADD_FAILURE() << "version skew reported as corruption: " << e.what();
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "checkpoint format version " + std::to_string(previous)),
              std::string::npos)
        << e.what();
  }
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

// Every single-bit flip and every truncation of an envelope is refused, for
// every payload length up to 40 bytes (each tail of the checksum's 32-byte
// stripes and 8-byte words) and for a 4 KiB payload. A flip is corruption
// everywhere except in the version's value, where it reads as another
// format version.
TEST(CheckpointEnvelope, EveryBitFlipAndTruncationIsRefused) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  SplitMix64 rng(7);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("payload length " + std::to_string(n));
    std::string payload(n, '\0');
    for (char& c : payload) c = static_cast<char>(rng.next_u64());
    const std::string bytes = sim::Checkpoint::wrap(payload).encode();
    ASSERT_EQ(bytes.size(), kPayloadOffset + n);
    ASSERT_EQ(sim::Checkpoint::decode(bytes).payload(), payload);

    std::size_t corrupt = 0;
    std::size_t skew = 0;
    std::string flipped = bytes;
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
      const std::size_t at = bit / 8;
      const char mask = static_cast<char>(1u << (bit % 8));
      flipped[at] ^= mask;
      try {
        sim::Checkpoint::decode(flipped);
      } catch (const sim::CorruptStateError&) {
        ++corrupt;
      } catch (const SerializationError&) {
        if (at >= kVersionOffset && at < kVersionOffset + 4) ++skew;
      }
      flipped[at] ^= mask;
    }
    EXPECT_EQ(skew, 32u);
    EXPECT_EQ(corrupt, 8 * bytes.size() - 32);

    std::size_t truncations = 0;
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      try {
        sim::Checkpoint::decode(bytes.substr(0, len));
      } catch (const sim::CorruptStateError&) {
        ++truncations;
      }
    }
    EXPECT_EQ(truncations, bytes.size());
    EXPECT_THROW(sim::Checkpoint::decode(bytes + 'x'),
                 sim::CorruptStateError);
  }
}

// The checksum is part of the on-disk format: a change to payload_checksum
// that moves these values must bump kCheckpointFormatVersion and re-pin.
TEST(CheckpointEnvelope, ChecksumIsPinned) {
  ASSERT_EQ(sim::kCheckpointFormatVersion, 9u);
  // 123 bytes: three 32-byte stripes, three more words and a 3-byte tail.
  std::string payload;
  for (int i = 0; i < 123; ++i) payload.push_back(static_cast<char>(i * 37 + 11));
  EXPECT_EQ(sim::payload_checksum(""), 0x8C3C4EE77269DE1Aull);
  EXPECT_EQ(sim::payload_checksum("payload"), 0x6DC25CE31D6364DBull);
  EXPECT_EQ(sim::payload_checksum(payload), 0xAC46959161B58D78ull);

  const std::string bytes = sim::Checkpoint::wrap(payload).encode();
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + kChecksumOffset, sizeof(stored));
  EXPECT_EQ(stored, 0xAC46959161B58D78ull);
  EXPECT_EQ(bytes.substr(kPayloadOffset), payload);
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
  double last_hvac_power_w = 0.0;
  {
    auto controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    sim::FaultInjector injector(test_schedule(), 99);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    while (session.step_index() < 80) session.advance();
    encoded = session.checkpoint();
    last_hvac_power_w = session.last_hvac_power_w();
  }
  ASSERT_GT(last_hvac_power_w, 0.0);
  core::SimulationResult resumed;
  {
    auto controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    sim::FaultInjector injector(test_schedule(), 99);
    core::SimulationSession session(params, *controller, profile,
                                    faulted_options(&injector));
    session.restore(encoded);
    EXPECT_EQ(session.step_index(), 80u);
    // The last step's HVAC power is restored too, not only what the next
    // step recomputes.
    EXPECT_EQ(session.last_hvac_power_w(), last_hvac_power_w);
    session.run_to_completion();
    resumed = session.finish();
  }

  expect_same_traces(reference, resumed);
}

TEST(SessionCheckpoint, MpcCheckpointStaysSmallOnCondensedBackend) {
  // The condensed QP path keeps no cross-solve state, so an MPC session's
  // checkpoint carries the warm-start plan, working set, telemetry and a
  // few steps of traces — kilobytes, not the ~430 KB of dense linearization
  // snapshots (E, H, A) the format stored before v5.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 60);
  auto controller = core::make_mpc_controller(params);
  core::SimulationSession session(params, *controller, profile, {});
  while (controller->stats().plans < 3) session.advance();
  ASSERT_GT(controller->stats().solver.solves, 0u);
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
