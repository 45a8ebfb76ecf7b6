// Strict JSON value, parser and canonical writer for the run-artifact
// layer (obs/artifact.h, docs/ARTIFACTS.md).
//
// The grammar is deliberately strict -- objects, arrays, strings,
// numbers, booleans and null; no trailing commas, no comments, no
// NaN/Infinity literals -- so every document fpkit writes can be read
// back by any off-the-shelf JSON tool. A value is one tagged variant; an
// object is its members kept sorted by key (the last of duplicate keys
// wins), and find/at binary-search them. dump() is canonical: object keys
// are emitted in that sorted order and numbers in the bytes of "%.17g"
// (which round-trips every finite double), so parse(dump(v)) followed by
// another dump() reproduces the input byte for byte. The artifact
// round-trip tests and `fpkit compare` both lean on that property. The
// metrics and trace writers append through the same two helpers,
// json_append_number and json_append_quoted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace fp::obs {

class Json {
 public:
  /// The variant's alternatives, in order.
  enum class Kind { Null, Bool, Number, String, Array, Object };
  /// An object's members, sorted by key, each key once.
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  static Json boolean(bool value);
  static Json number(double value);
  static Json number(long long value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(value_.index()); }
  [[nodiscard]] bool is_object() const { return kind() == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::Array; }
  [[nodiscard]] bool is_number() const { return kind() == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind() == Kind::String; }

  /// Value accessors; each throws InvalidArgument on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] const Members& fields() const;

  /// Object lookup; `at` throws InvalidArgument when the key is absent,
  /// `find` returns null on a miss (also on non-objects). The mutable
  /// `find` lets a caller move a member's value out.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] Json* find(std::string_view key);
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }

  /// Object/array builders (the value must already be of that kind).
  /// `set` replaces an existing key's value; a key that sorts after every
  /// other is an append.
  Json& set(std::string key, Json value);
  Json& push(Json value);

  /// Canonical compact serialisation (sorted keys, %.17g numbers).
  [[nodiscard]] std::string dump() const;

 private:
  class Parser;
  friend Json json_parse(std::string_view text);

  using Value = std::variant<std::monostate, bool, double, std::string,
                             std::vector<Json>, Members>;
  explicit Json(Value value) : value_(std::move(value)) {}

  void dump_into(std::string& out) const;

  Value value_;
};

/// Deepest array/object nesting json_parse accepts. The parser recurses
/// once per level, so a bound keeps hostile input from overflowing the
/// stack; the deepest document fpkit writes (SARIF) nests 9 levels.
inline constexpr int kJsonMaxDepth = 256;

/// Parses a complete strict-JSON document; throws InvalidArgument (with
/// the byte offset) on any syntax error, trailing garbage or nesting
/// deeper than kJsonMaxDepth.
[[nodiscard]] Json json_parse(std::string_view text);

/// Reads and parses `path`; throws IoError when unreadable and
/// InvalidArgument (with the path in the message) on malformed JSON.
[[nodiscard]] Json json_load(const std::string& path);

/// Appends `value` in the bytes of "%.17g" (written by std::to_chars),
/// with NaN and +-Infinity clamped to 0: strict JSON has no literal for
/// them. Every fpkit JSON writer formats its numbers here.
void json_append_number(std::string& out, double value);

/// Appends `text` as a JSON string literal: quoted, with '"', '\\', '\n'
/// and '\t' escaped by name and other control characters as \u00XX.
void json_append_quoted(std::string& out, std::string_view text);

/// json_append_number and json_append_quoted as strings.
[[nodiscard]] std::string json_number_text(double value);
[[nodiscard]] std::string json_quote(std::string_view text);

/// Lenient field reads for documents fpkit tolerates partially (traces,
/// metrics parts, heartbeats): `key`'s value when `object` has it with
/// the right kind, else `fallback`.
[[nodiscard]] inline double number_or(const Json& object, std::string_view key,
                                      double fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

[[nodiscard]] inline std::string string_or(const Json& object,
                                           std::string_view key,
                                           std::string fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

}  // namespace fp::obs
