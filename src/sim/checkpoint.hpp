// Versioned, crash-safe checkpoint container.
//
// A Checkpoint wraps an opaque serialized payload (produced with
// BinaryWriter by whoever owns the state — canonically
// core::SimulationSession) in a self-validating envelope:
//
//   magic "EVCKPT\0\1" · format version u32 · payload length u64 ·
//   FNV-1a-64 checksum of the payload · payload bytes
//
// The envelope makes two failure modes detectable instead of corrupting:
//   * version skew — a checkpoint from a different format version is
//     refused with SerializationError, never reinterpreted;
//   * torn or bit-rotted files — the checksum must match before a single
//     payload byte is handed to the reader.
// write_file() is atomic and durable (write to a sibling temp file, fsync,
// rename, fsync the directory), so a process killed mid-checkpoint leaves
// either the previous complete checkpoint or a temp file the loader never
// looks at — never a half checkpoint under the real name. That property is
// what the chaos-soak harness's kill-and-resume cycles lean on. I/O
// failures surface as CheckpointIoError so retry policies can tell a flaky
// disk from a corrupt payload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/serialize.hpp"

namespace evc::io {
class Vfs;
}

namespace evc::sim {

/// Bumped whenever the payload layout changes incompatibly.
/// v2: flight-recorder ring + per-step solver effort in the MPC section.
/// v3: condensed-QP counters + backend cache section in the MPC section.
/// v4: supervisor tier floor + forced-demotion counter.
/// v5: the MPC section drops v3's backend cache section (the condensed QP
///     path keeps no cross-solve state).
/// v6: the MPC section carries the last plan's QP working set next to its
///     multipliers, and its QP counter block gains a fallback count.
/// v7: the QP counter block drops the counters of the deleted
///     interior-point solver, the fallback count, and the always-zero
///     dense_fallbacks and workspace_growths.
inline constexpr std::uint32_t kCheckpointFormatVersion = 7;

/// I/O failure while writing or reading a checkpoint file (open, short
/// write, fsync, rename). Distinct from SerializationError — the content
/// was fine, the storage misbehaved — so callers that own a retry policy
/// (the session service's eviction path) can retry exactly these and
/// still refuse corrupted payloads.
class CheckpointIoError : public std::runtime_error {
 public:
  explicit CheckpointIoError(const std::string& what, int err = 0)
      : std::runtime_error("checkpoint io: " + what), err_(err) {}
  /// errno value when one is known (0 otherwise): lets retry policies
  /// separate ENOENT ("not there — fall back") from EIO/ENOSPC ("flaky —
  /// retry with backoff").
  int err() const { return err_; }

 private:
  int err_;
};

/// The stored bytes themselves are damaged: bad magic, truncated payload,
/// or checksum mismatch. Retrying cannot help (the corruption is on the
/// platter) — the owner must quarantine the file and salvage from the last
/// good generation. Subclasses SerializationError so every existing
/// refuse-the-payload site keeps refusing; deliberately does NOT cover
/// version skew, which stays a plain SerializationError (an intact file
/// from another build is refused loudly, never quarantined as corrupt).
class CorruptStateError : public SerializationError {
 public:
  explicit CorruptStateError(const std::string& what)
      : SerializationError("corrupt state: " + what) {}
};

class Checkpoint {
 public:
  Checkpoint() = default;
  /// Wrap an already-serialized payload (e.g. BinaryWriter::take()).
  static Checkpoint wrap(std::string payload);

  const std::string& payload() const { return payload_; }

  /// Envelope + payload as a byte string.
  std::string encode() const;
  /// Parse and validate an encoded checkpoint. Throws CorruptStateError on
  /// bad magic, truncation, or checksum mismatch; plain SerializationError
  /// on version skew.
  static Checkpoint decode(const std::string& bytes);

  /// Atomically and durably write encode() to `path` through `vfs`:
  /// sibling temp file, fsync the file, rename over the real name, then
  /// fsync the containing directory — the rename alone orders nothing
  /// across a power loss; the directory fsync is what makes the new name
  /// itself durable. Pass `durable = false` to skip both fsyncs (atomic
  /// against process crash only — callers with their own durability
  /// batching, e.g. the session store's group-commit mode). Throws
  /// CheckpointIoError on I/O failure.
  void write_file(io::Vfs& vfs, const std::string& path,
                  bool durable = true) const;
  /// Same, on the process-default backend (io::default_vfs()).
  void write_file(const std::string& path, bool durable = true) const;
  /// Read and validate a checkpoint file (same failure modes as decode,
  /// plus CheckpointIoError when the file cannot be read —
  /// err() == ENOENT for a missing file).
  static Checkpoint read_file(io::Vfs& vfs, const std::string& path);
  static Checkpoint read_file(const std::string& path);

 private:
  std::string payload_;
};

/// FNV-1a 64-bit — tiny, dependency-free integrity hash for the envelope.
std::uint64_t fnv1a64(const std::string& bytes);

}  // namespace evc::sim
