// Wire format of the session store's write-ahead manifest, shared by the
// store itself (append/replay/compact), the offline fsck scrubber, and the
// WAL deserialization fuzzer — one codec, three consumers, no drift.
//
// A manifest is a flat sequence of frames:
//
//   u32 body length · u64 FNV-1a-64 of body · body
//
// with a body of typed fields (BinaryWriter tags): u8 record type ·
// u64 vehicle id · u64 step. Frames append contiguously (O_APPEND), so a
// crash can only tear the final frame; the first frame that is short,
// oversized, or fails its checksum marks the torn tail and everything from
// there on is discarded.
//
// Forward compatibility: a frame whose checksum matches but whose body is
// not parseable as (type, vehicle, step) — or whose type is unknown — came
// from a newer writer. Integrity is already vouched for, so it is carried
// through as type kRecordUnknown and skipped by replay, not treated as
// corruption.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/serialize.hpp"

namespace evc::svc::wal {

/// FNV-1a 64-bit of a frame body. Frames keep this hash although the
/// checkpoint envelope moved on (sim::payload_checksum): the manifest
/// carries no format version, so a changed frame checksum would make every
/// existing manifest read as torn.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

constexpr std::uint8_t kRecordUnknown = 0;
constexpr std::uint8_t kRecordPersist = 1;
constexpr std::uint8_t kRecordRetire = 2;

/// Frame header: u32 length + u64 checksum.
constexpr std::size_t kFrameHeaderBytes = 12;
/// Bodies are ~17 bytes today; anything near this bound is garbage read as
/// a length field, treated the same as a torn frame.
constexpr std::uint32_t kMaxFrameBody = 1u << 20;

struct Record {
  std::uint8_t type = kRecordUnknown;
  std::uint64_t vehicle = 0;
  std::uint64_t step = 0;
};

inline std::string encode_frame(const Record& record) {
  BinaryWriter body;
  body.write_u8(record.type);
  body.write_u64(record.vehicle);
  body.write_u64(record.step);
  const std::string_view payload = body.bytes();
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t checksum = fnv1a64(payload);

  std::string frame;
  frame.resize(kFrameHeaderBytes + payload.size());
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &checksum, 8);
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  return frame;
}

struct ParsedManifest {
  std::vector<Record> records;
  /// Byte length of the valid frame prefix; bytes past this are the torn
  /// tail (empty when valid_bytes == input size).
  std::size_t valid_bytes = 0;
};

inline ParsedManifest parse_frames(std::string_view bytes) {
  ParsedManifest out;
  std::size_t pos = 0;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&checksum, bytes.data() + pos + 4, 8);
    if (len > kMaxFrameBody) break;
    if (pos + kFrameHeaderBytes + len > bytes.size()) break;
    const std::string_view body = bytes.substr(pos + kFrameHeaderBytes, len);
    if (fnv1a64(body) != checksum) break;

    Record record;
    try {
      BinaryReader reader(body);
      record.type = reader.read_u8();
      record.vehicle = reader.read_u64();
      record.step = reader.read_u64();
    } catch (const SerializationError&) {
      record = Record{};  // checksummed but unparseable: newer writer
    }
    out.records.push_back(record);
    pos += kFrameHeaderBytes + len;
  }
  out.valid_bytes = pos;
  return out;
}

}  // namespace evc::svc::wal
