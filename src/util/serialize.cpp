#include "util/serialize.hpp"

#include <algorithm>

namespace evc {

using namespace wire;

void BinaryWriter::grow(std::size_t n) {
  buf_.resize(std::max({len_ + n, 2 * buf_.size(), std::size_t{256}}));
}

std::string BinaryWriter::take() {
  buf_.resize(len_);
  len_ = 0;
  std::string out = std::move(buf_);
  buf_.clear();
  return out;
}

void BinaryWriter::write_string(std::string_view s) {
  put_tag(kTagString);
  write_u64(s.size());
  put(s.data(), s.size());
}

void BinaryWriter::write_f64_vec(const std::vector<double>& v) {
  write_f64_seq(v.data(), v.size());
}

void BinaryWriter::write_f64_seq(const double* data, std::size_t n) {
  put_tag(kTagF64Vec);
  write_u64(n);
  for (std::size_t i = 0; i < n; ++i) write_f64(data[i]);
}

void BinaryWriter::write_size_vec(const std::vector<std::size_t>& v) {
  put_tag(kTagSizeVec);
  write_u64(v.size());
  for (std::size_t x : v) write_size(x);
}

void BinaryWriter::section(std::string_view name) {
  put_tag(kTagSection);
  write_string(name);
}

void BinaryReader::fail(const char* what) { throw SerializationError(what); }

char BinaryReader::tag() {
  if (pos_ >= data_.size()) fail("unexpected end of data");
  return data_[pos_++];
}

void BinaryReader::expect_tag(char want, const char* what) {
  const char got = tag();
  if (got != want)
    throw SerializationError(std::string("expected ") + what + " tag '" +
                             want + "', found '" + got + "'");
}

void BinaryReader::raw(void* out, std::size_t n) {
  if (remaining() < n) fail("truncated payload");
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
}

void BinaryReader::take_tagged_checked(char want, const char* what, void* out,
                                       std::size_t n) {
  expect_tag(want, what);
  raw(out, n);
}

std::string_view BinaryReader::string_body() {
  expect_tag(kTagString, "string");
  const std::size_t n = read_size();
  if (remaining() < n) fail("truncated string");
  const std::string_view s = data_.substr(pos_, n);
  pos_ += n;
  return s;
}

std::string BinaryReader::read_string() { return std::string(string_body()); }

std::vector<double> BinaryReader::read_f64_vec() {
  expect_tag(kTagF64Vec, "f64 vector");
  const std::size_t n = read_size();
  // Each element costs ≥ 9 bytes (tag + payload); a length that cannot fit
  // in the remaining buffer is corruption, not a huge allocation request.
  if (remaining() / 9 < n) fail("truncated f64 vector");
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = read_f64();
  return v;
}

std::vector<std::size_t> BinaryReader::read_size_vec() {
  expect_tag(kTagSizeVec, "size vector");
  const std::size_t n = read_size();
  if (remaining() / 9 < n) fail("truncated size vector");
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = read_size();
  return v;
}

void BinaryReader::expect_section(std::string_view name) {
  expect_tag(kTagSection, "section");
  const std::string_view got = string_body();
  if (got != name)
    throw SerializationError("expected section '" + std::string(name) +
                             "', found '" + std::string(got) + "'");
}

}  // namespace evc
