// Typed binary serialization for crash-safe checkpoints.
//
// A checkpoint must restore a run *byte-identically*: every double is
// written as its IEEE-754 bit pattern (never through decimal text), every
// integer little-endian fixed-width. Each value carries a one-byte type
// tag and every logical group a named section marker, so a reader that
// drifts out of sync with the writer fails loudly with a
// SerializationError instead of silently reinterpreting bytes — the
// difference between "restore refused" and "restore corrupted the run".
//
// The format is deliberately writer-defined (no schema evolution): a
// checkpoint is consumed by the same binary version that produced it, and
// the enclosing sim::Checkpoint header carries the format version that
// gates cross-version loads.
//
// The fixed-width values (bool, u8, u32, u64, f64) are the bulk of every
// checkpoint, so their writes and reads are inline: a write appends tag
// and value with one capacity check and one copy; a read makes one
// tag-and-bounds check and one load, and only when that check fails takes
// the out-of-line path that names the error.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace evc {

// Values are copied to and from the wire with memcpy, which is the
// little-endian wire order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint wire format assumes a little-endian host");

/// Thrown on any malformed read: truncation, type-tag mismatch, section
/// name mismatch, or trailing bytes.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what)
      : std::runtime_error("serialization: " + what) {}
};

/// Type tags. One byte per value keeps the overhead negligible next to the
/// payload while making any reader/writer drift a hard error.
namespace wire {
inline constexpr char kTagBool = 'b';
inline constexpr char kTagU8 = 'c';
inline constexpr char kTagU32 = 'u';
inline constexpr char kTagU64 = 'U';
inline constexpr char kTagF64 = 'd';
inline constexpr char kTagString = 's';
inline constexpr char kTagF64Vec = 'D';
inline constexpr char kTagSizeVec = 'Z';
inline constexpr char kTagSection = 'S';
}  // namespace wire

class BinaryWriter {
 public:
  void write_bool(bool v) {
    put_tagged(wire::kTagBool, static_cast<std::uint8_t>(v ? 1 : 0));
  }
  void write_u8(std::uint8_t v) { put_tagged(wire::kTagU8, v); }
  void write_u32(std::uint32_t v) { put_tagged(wire::kTagU32, v); }
  void write_u64(std::uint64_t v) { put_tagged(wire::kTagU64, v); }
  /// std::size_t values travel as u64 regardless of platform width.
  void write_size(std::size_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern — bit-exact round trip, NaN payloads included.
  void write_f64(double v) { put_tagged(wire::kTagF64, v); }
  void write_string(std::string_view s);
  void write_f64_vec(const std::vector<double>& v);
  /// Same wire format as write_f64_vec, from any contiguous double buffer
  /// (the numerics containers use an aligned allocator, not std::vector).
  void write_f64_seq(const double* data, std::size_t n);
  void write_size_vec(const std::vector<std::size_t>& v);
  /// Named group marker; the reader must consume it with expect_section.
  void section(std::string_view name);

  std::string_view bytes() const { return {buf_.data(), len_}; }
  std::string take();

 private:
  template <typename T>
  void put_tagged(char tag, T v) {
    char record[1 + sizeof(T)];
    record[0] = tag;
    std::memcpy(record + 1, &v, sizeof(T));
    put(record, sizeof(record));
  }
  void put_tag(char tag) { put(&tag, 1); }
  void put(const void* data, std::size_t n) {
    if (buf_.size() - len_ < n) grow(n);
    std::memcpy(buf_.data() + len_, data, n);
    len_ += n;
  }
  void grow(std::size_t n);
  /// buf_.size() is the capacity; bytes [0, len_) are written.
  std::string buf_;
  std::size_t len_ = 0;
};

class BinaryReader {
 public:
  /// Reads from `data`; the caller keeps the buffer alive for the
  /// reader's lifetime.
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool read_bool() {
    const auto v = take_tagged<std::uint8_t>(wire::kTagBool, "bool");
    if (v > 1) fail("malformed bool");
    return v == 1;
  }
  std::uint8_t read_u8() {
    return take_tagged<std::uint8_t>(wire::kTagU8, "u8");
  }
  std::uint32_t read_u32() {
    return take_tagged<std::uint32_t>(wire::kTagU32, "u32");
  }
  std::uint64_t read_u64() {
    return take_tagged<std::uint64_t>(wire::kTagU64, "u64");
  }
  std::size_t read_size() {
    const std::uint64_t v = read_u64();
    if (v > static_cast<std::uint64_t>(SIZE_MAX))
      fail("size value exceeds platform size_t");
    return static_cast<std::size_t>(v);
  }
  double read_f64() { return take_tagged<double>(wire::kTagF64, "f64"); }
  std::string read_string();
  std::vector<double> read_f64_vec();
  std::vector<std::size_t> read_size_vec();
  /// Consume a section marker; throws unless its name is exactly `name`.
  void expect_section(std::string_view name);

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T take_tagged(char want, const char* what) {
    T v;
    if (remaining() > sizeof(T) && data_[pos_] == want) {
      std::memcpy(&v, data_.data() + pos_ + 1, sizeof(T));
      pos_ += 1 + sizeof(T);
    } else {
      take_tagged_checked(want, what, &v, sizeof(T));
    }
    return v;
  }
  void take_tagged_checked(char want, const char* what, void* out,
                           std::size_t n);
  [[noreturn]] static void fail(const char* what);
  char tag();
  void expect_tag(char want, const char* what);
  void raw(void* out, std::size_t n);
  std::string_view string_body();
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace evc
