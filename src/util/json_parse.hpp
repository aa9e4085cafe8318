// Minimal JSON ingestion, paired with JsonWriter (json.hpp).
//
// Grown for exactly two consumers, both on untrusted-input boundaries:
//   * svc::apply_service_config_json — operator-supplied service tuning
//     files (`--config` on the service benches);
//   * the fuzz_json harness, which drives parse_json over adversarial
//     bytes under ASan/UBSan and round-trips parse → dump → parse.
//
// Deliberately strict: one document per input (trailing garbage rejected),
// a hard nesting-depth cap (stack safety under fuzzing), UTF-16 escapes
// decoded with surrogate-pair validation, and numbers validated against
// the JSON grammar before strtod ever sees them. Any violation throws
// JsonParseError — never UB, never a partially-populated value.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace evc {

class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what)
      : std::runtime_error("json: " + what) {}
};

/// Parsed JSON document node. Accessors are typed and throw JsonParseError
/// on a type mismatch — a config reader never silently coerces.
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  JsonValue() = default;  // null

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  /// Array elements.
  const std::vector<JsonValue>& items() const;
  /// Object members in document order (duplicate keys preserved).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// First member named `key`, nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Maximum container nesting accepted by parse_json.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parse one complete JSON document. Throws JsonParseError on any syntax
/// error, depth overflow, invalid escape, or trailing non-whitespace.
JsonValue parse_json(std::string_view text);

/// Render a JsonValue back to canonical JSON (JsonWriter formatting).
std::string dump_json(const JsonValue& value);

}  // namespace evc
