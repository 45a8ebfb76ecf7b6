#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <system_error>

#include "util/error.h"

namespace fp::obs {

namespace {

[[noreturn]] void kind_error(std::string_view want, Json::Kind got) {
  throw InvalidArgument("json: expected " + std::string(want) +
                        ", got kind " +
                        std::to_string(static_cast<int>(got)));
}

/// Whether `member`'s key sorts before `key`, in std::string's byte order.
bool key_before(const std::pair<std::string, Json>& member,
                std::string_view key) {
  return member.first < key;
}

}  // namespace

class Json::Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("json parse error at offset " +
                          std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      Json value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return Json::string(parse_string());
    if (c == 't' && consume_literal("true")) return Json::boolean(true);
    if (c == 'f' && consume_literal("false")) return Json::boolean(false);
    if (c == 'n' && consume_literal("null")) return Json();
    return parse_number();
  }

  /// Appends the members as they come and sorts them once at '}',
  /// stably, so the last of duplicate keys wins: O(n log n) in any key
  /// order.
  Json parse_object() {
    Members members;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    members.reserve(4);
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      sort_members(members);
      return Json(std::move(members));
    }
  }

  static void sort_members(Members& members) {
    const auto before = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    const auto not_before = [&](const auto& a, const auto& b) {
      return !before(a, b);
    };
    if (std::adjacent_find(members.begin(), members.end(), not_before) ==
        members.end()) {
      return;  // already strictly ascending, as fpkit writes them
    }
    std::stable_sort(members.begin(), members.end(), before);
    // Keep the last member of each run of equal keys.
    auto kept = members.begin();
    for (auto it = members.begin(); it != members.end(); ++it) {
      const auto next = std::next(it);
      if (next != members.end() && next->first == it->first) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    members.erase(kept, members.end());
  }

  Json parse_array() {
    Json value = Json::array();
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // fpkit only ever escapes control characters, which stay in the
          // one-byte range; anything else is re-encoded as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// Skips a run of digits; returns how many there were.
  std::size_t skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. An integer of at
  /// most 15 digits is exact in a double and converts as an integer (-0
  /// stays -0.0); any other token goes through std::from_chars. A value
  /// beyond +-DBL_MAX, or a nonzero one that rounds to 0, is an error.
  Json parse_number() {
    const std::size_t start = pos_;
    const bool negative = at('-');
    if (negative) ++pos_;
    const std::size_t digits_start = pos_;
    if (at('0')) {
      ++pos_;
    } else if (skip_digits() == 0) {
      if (pos_ == start) fail("expected a value");
      fail("malformed number");
    }
    const std::size_t digits_end = pos_;
    if (at('.')) {
      ++pos_;
      if (skip_digits() == 0) fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (skip_digits() == 0) fail("malformed number");
    }
    if (pos_ == digits_end && digits_end - digits_start <= 15) {
      std::int64_t magnitude = 0;
      for (std::size_t i = digits_start; i < pos_; ++i) {
        magnitude = magnitude * 10 + (text_[i] - '0');
      }
      const auto value = static_cast<double>(magnitude);
      return Json::number(negative ? -value : value);
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double parsed = 0.0;
    const auto [end, error] = std::from_chars(first, last, parsed);
    if (error != std::errc() || end != last) {
      fail("number out of range '" + std::string(first, last) + "'");
    }
    return Json::number(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

Json Json::boolean(bool value) { return Json(value); }

Json Json::number(double value) { return Json(value); }

Json Json::number(long long value) {
  return number(static_cast<double>(value));
}

Json Json::string(std::string value) { return Json(std::move(value)); }

Json Json::array() { return Json(std::vector<Json>()); }

Json Json::object() { return Json(Members()); }

bool Json::as_bool() const {
  if (kind() != Kind::Bool) kind_error("bool", kind());
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (kind() != Kind::Number) kind_error("number", kind());
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (kind() != Kind::String) kind_error("string", kind());
  return std::get<std::string>(value_);
}

const std::vector<Json>& Json::items() const {
  if (kind() != Kind::Array) kind_error("array", kind());
  return std::get<std::vector<Json>>(value_);
}

const Json::Members& Json::fields() const {
  if (kind() != Kind::Object) kind_error("object", kind());
  return std::get<Members>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw InvalidArgument("json: no key '" + std::string(key) + "'");
  }
  return *found;
}

const Json* Json::find(std::string_view key) const {
  const Members* members = std::get_if<Members>(&value_);
  if (members == nullptr) return nullptr;
  const auto it =
      std::lower_bound(members->begin(), members->end(), key, key_before);
  return it != members->end() && it->first == key ? &it->second : nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

Json& Json::set(std::string key, Json value) {
  Members* members = std::get_if<Members>(&value_);
  if (members == nullptr) kind_error("object", kind());
  if (members->empty() || members->back().first < key) {
    if (members->empty()) members->reserve(4);
    members->emplace_back(std::move(key), std::move(value));
    return *this;
  }
  const auto it = std::lower_bound(members->begin(), members->end(),
                                   std::string_view(key), key_before);
  if (it->first == key) {
    it->second = std::move(value);
  } else {
    members->emplace(it, std::move(key), std::move(value));
  }
  return *this;
}

Json& Json::push(Json value) {
  std::vector<Json>* items = std::get_if<std::vector<Json>>(&value_);
  if (items == nullptr) kind_error("array", kind());
  items->push_back(std::move(value));
  return *this;
}

void json_append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  char buf[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-ddd
  // An integer below 10^15 (other than -0) prints as its digits under
  // "%.17g" too; the integer conversion writes them faster.
  if (std::fabs(value) < 1e15) {
    const auto integer = static_cast<std::int64_t>(value);
    if (static_cast<double>(integer) == value &&
        (integer != 0 || !std::signbit(value))) {
      const auto written = std::to_chars(buf, buf + sizeof buf, integer);
      out.append(buf, written.ptr);
      return;
    }
  }
  const auto written = std::to_chars(buf, buf + sizeof buf, value,
                                     std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

void json_append_quoted(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

std::string json_number_text(double value) {
  std::string out;
  json_append_number(out, value);
  return out;
}

std::string json_quote(std::string_view text) {
  std::string out;
  json_append_quoted(out, text);
  return out;
}

std::string Json::dump() const {
  std::string out;
  out.reserve(128);  // a serve response or journal event in one allocation
  dump_into(out);
  return out;
}

void Json::dump_into(std::string& out) const {
  switch (kind()) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += std::get<bool>(value_) ? "true" : "false";
      return;
    case Kind::Number:
      json_append_number(out, std::get<double>(value_));
      return;
    case Kind::String:
      json_append_quoted(out, std::get<std::string>(value_));
      return;
    case Kind::Array: {
      out += '[';
      const auto& items = std::get<std::vector<Json>>(value_);
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ',';
        items[i].dump_into(out);
      }
      out += ']';
      return;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : std::get<Members>(value_)) {
        if (!first) out += ',';
        first = false;
        json_append_quoted(out, key);
        out += ':';
        value.dump_into(out);
      }
      out += '}';
      return;
    }
  }
}

Json json_parse(std::string_view text) {
  return Json::Parser(text).parse_document();
}

Json json_load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("json_load: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) throw IoError("json_load: read from '" + path + "' failed");
  try {
    return json_parse(buffer.str());
  } catch (InvalidArgument& error) {
    error.add_context("file=" + path);
    throw;
  }
}

}  // namespace fp::obs
