#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

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

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    std::size_t used = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("malformed number '" + token + "'");
    }
    if (used != token.size()) fail("malformed number '" + token + "'");
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

std::string json_number_text(double value) {
  if (!(value == value) || value > 1e308 || value < -1e308) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string Json::dump() const {
  switch (kind_) {
    case Kind::Null:
      return "null";
    case Kind::Bool:
      return bool_ ? "true" : "false";
    case Kind::Number:
      return json_number_text(number_);
    case Kind::String:
      return json_quote(string_);
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ",";
        out += array_[i].dump();
      }
      out += "]";
      return out;
    }
    case Kind::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ",";
        first = false;
        out += json_quote(key) + ":" + value.dump();
      }
      out += "}";
      return out;
    }
  }
  return "null";
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
