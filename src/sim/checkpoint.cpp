#include "sim/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "util/io/vfs.hpp"
#include "util/serialize.hpp"

namespace evc::sim {

namespace {

// 8 bytes: readable prefix + NUL + format generation.
const char kMagic[8] = {'E', 'V', 'C', 'K', 'P', 'T', '\0', '\1'};

}  // namespace

std::uint64_t payload_checksum(std::string_view payload) {
  // Odd, so each lane step is a bijection of the lane state.
  constexpr std::uint64_t kPrime = 0x9E3779B185EBCA87ull;
  std::uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                           0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const auto word = [](const char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));  // little-endian (serialize.hpp)
    return w;
  };
  const char* p = payload.data();
  std::size_t n = payload.size();
  // Four independent multiply chains keep the multiplier busy; one chain
  // would wait out a multiply latency per word.
  for (; n >= 32; p += 32, n -= 32)
    for (int k = 0; k < 4; ++k) lane[k] = (lane[k] ^ word(p + 8 * k)) * kPrime;
  for (int k = 0; n >= 8; p += 8, n -= 8, ++k)
    lane[k] = (lane[k] ^ word(p)) * kPrime;
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  for (; n > 0; ++p, --n)
    h = (h ^ static_cast<unsigned char>(*p)) * kPrime;
  h ^= static_cast<std::uint64_t>(payload.size());
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

Checkpoint Checkpoint::wrap(std::string payload) {
  Checkpoint c;
  c.payload_ = std::move(payload);
  return c;
}

std::string Checkpoint::encode() const {
  BinaryWriter header;
  header.write_u32(kCheckpointFormatVersion);
  header.write_u64(payload_.size());
  header.write_u64(payload_checksum(payload_));
  std::string out;
  out.reserve(sizeof(kMagic) + header.bytes().size() + payload_.size());
  out.append(kMagic, sizeof(kMagic));
  out.append(header.bytes());
  out.append(payload_);
  return out;
}

Checkpoint Checkpoint::decode(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    throw CorruptStateError("not a checkpoint (bad magic)");
  BinaryReader header(
      std::string_view(bytes).substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
  try {
    version = header.read_u32();
    if (version != kCheckpointFormatVersion)
      throw SerializationError(
          "checkpoint format version " + std::to_string(version) +
          " (this build reads version " +
          std::to_string(kCheckpointFormatVersion) + ")");
    length = header.read_u64();
    checksum = header.read_u64();
  } catch (const CorruptStateError&) {
    throw;
  } catch (const SerializationError& e) {
    if (version != 0 && version != kCheckpointFormatVersion) throw;
    // A header too short to even parse is damage, not skew.
    throw CorruptStateError(e.what());
  }
  const std::size_t body_offset = bytes.size() - header.remaining();
  if (header.remaining() != length)
    throw CorruptStateError("checkpoint payload truncated");
  const std::string_view body = std::string_view(bytes).substr(body_offset);
  if (payload_checksum(body) != checksum)
    throw CorruptStateError("checkpoint checksum mismatch (torn write?)");
  Checkpoint c;
  c.payload_ = body;
  return c;
}

void Checkpoint::write_file(io::Vfs& vfs, const std::string& path,
                            bool durable) const {
  try {
    io::write_file_atomic(vfs, path, encode(), durable);
  } catch (const io::IoError& e) {
    // CrashPoint is not an IoError (nor a std::exception): a simulated
    // process death unwinds straight through here to the harness.
    throw CheckpointIoError(e.what(), e.err());
  }
}

void Checkpoint::write_file(const std::string& path, bool durable) const {
  write_file(io::default_vfs(), path, durable);
}

Checkpoint Checkpoint::read_file(io::Vfs& vfs, const std::string& path) {
  std::string bytes;
  try {
    bytes = io::read_whole_file(vfs, path);
  } catch (const io::IoError& e) {
    throw CheckpointIoError(e.what(), e.err());
  }
  return decode(bytes);
}

Checkpoint Checkpoint::read_file(const std::string& path) {
  return read_file(io::default_vfs(), path);
}

}  // namespace evc::sim
