#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <fstream>
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

class Parser {
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
    if (consume_literal("true")) return Json::boolean(true);
    if (consume_literal("false")) return Json::boolean(false);
    if (consume_literal("null")) return Json();
    return parse_number();
  }

  Json parse_object() {
    Json value = Json::object();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
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
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
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

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted with
  /// std::from_chars. A value beyond +-DBL_MAX, or a nonzero one that
  /// rounds to 0, is an error.
  Json parse_number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (skip_digits() == 0) {
      if (pos_ == start) fail("expected a value");
      fail("malformed number");
    }
    if (at('.')) {
      ++pos_;
      if (skip_digits() == 0) fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (skip_digits() == 0) fail("malformed number");
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

}  // namespace

Json Json::boolean(bool value) {
  Json json;
  json.kind_ = Kind::Bool;
  json.bool_ = value;
  return json;
}

Json Json::number(double value) {
  Json json;
  json.kind_ = Kind::Number;
  json.number_ = value;
  return json;
}

Json Json::number(long long value) {
  return number(static_cast<double>(value));
}

Json Json::string(std::string value) {
  Json json;
  json.kind_ = Kind::String;
  json.string_ = std::move(value);
  return json;
}

Json Json::array() {
  Json json;
  json.kind_ = Kind::Array;
  return json;
}

Json Json::object() {
  Json json;
  json.kind_ = Kind::Object;
  return json;
}

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) kind_error("number", kind_);
  return number_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  return array_;
}

const std::map<std::string, Json>& Json::fields() const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  return object_;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw InvalidArgument("json: no key '" + std::string(key) + "'");
  }
  return *found;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  object_.insert_or_assign(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  array_.push_back(std::move(value));
  return *this;
}

void json_append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  char buf[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-ddd
  const auto written = std::to_chars(buf, buf + sizeof buf, value,
                                     std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

void json_append_quoted(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
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
  dump_into(out);
  return out;
}

void Json::dump_into(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Number:
      json_append_number(out, number_);
      return;
    case Kind::String:
      json_append_quoted(out, string_);
      return;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        array_[i].dump_into(out);
      }
      out += ']';
      return;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
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
  return Parser(text).parse_document();
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
