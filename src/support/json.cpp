#include "support/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace geogossip {

JsonValue JsonParser::parse() {
  JsonValue value = parse_value();
  skip_ws();
  if (pos_ != text_.size()) throw JsonParseError("trailing garbage");
  return value;
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
          text_[pos_] == '\n')) {
    ++pos_;
  }
}

char JsonParser::peek() {
  if (pos_ >= text_.size()) throw JsonParseError("unexpected end");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    throw JsonParseError(std::string("expected '") + c + "'");
  }
  ++pos_;
}

bool JsonParser::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

JsonValue JsonParser::parse_value() {
  skip_ws();
  const char c = peek();
  if (c == '{') return parse_object();
  if (c == '[') return parse_array();
  if (c == '"') {
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.text = parse_string();
    return value;
  }
  if (c == 't' || c == 'f') {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (consume_literal("true")) {
      value.boolean = true;
    } else if (consume_literal("false")) {
      value.boolean = false;
    } else {
      throw JsonParseError("bad literal");
    }
    return value;
  }
  if (c == 'n') {
    if (!consume_literal("null")) throw JsonParseError("bad literal");
    return JsonValue{};
  }
  // Non-finite extension tokens the sinks emit (and Python's json
  // accepts): NaN, Infinity, -Infinity.
  if (c == 'N') {
    if (!consume_literal("NaN")) throw JsonParseError("bad literal");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::numeric_limits<double>::quiet_NaN();
    return value;
  }
  if (c == 'I' ||
      (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == 'I')) {
    const bool negative = c == '-';
    if (negative) ++pos_;
    if (!consume_literal("Infinity")) throw JsonParseError("bad literal");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = negative ? -std::numeric_limits<double>::infinity()
                            : std::numeric_limits<double>::infinity();
    return value;
  }
  return parse_number();
}

JsonValue JsonParser::parse_object() {
  expect('{');
  JsonValue value;
  value.kind = JsonValue::Kind::kObject;
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
    value.members.emplace_back(std::move(key), parse_value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    return value;
  }
}

JsonValue JsonParser::parse_array() {
  expect('[');
  JsonValue value;
  value.kind = JsonValue::Kind::kArray;
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return value;
  }
  while (true) {
    value.elements.push_back(parse_value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    return value;
  }
}

std::string JsonParser::parse_string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) throw JsonParseError("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) throw JsonParseError("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) throw JsonParseError("bad \\u");
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
            throw JsonParseError("bad \\u digit");
          }
        }
        // The sinks only \u-escape control characters; reject surrogate
        // halves, encode the rest as UTF-8.
        if (code >= 0xD800 && code <= 0xDFFF) {
          throw JsonParseError("surrogate escape");
        }
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
        throw JsonParseError("bad escape");
    }
  }
}

JsonValue JsonParser::parse_number() {
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool digits_only = pos_ > start ? false : true;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
      continue;
    }
    if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      digits_only = false;
      ++pos_;
      continue;
    }
    break;
  }
  if (pos_ == start) throw JsonParseError("bad number");
  const std::string token(text_.substr(start, pos_ - start));
  JsonValue value;
  value.kind = JsonValue::Kind::kNumber;
  char* end = nullptr;
  value.number = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    throw JsonParseError("bad number");
  }
  if (digits_only) {
    // Unsigned integer token: keep the exact 64-bit value (XL tx counts
    // can exceed the 2^53 double-exact range).
    errno = 0;
    value.uint_value = std::strtoull(token.c_str(), &end, 10);
    value.is_uint = errno == 0 && end == token.c_str() + token.size();
  }
  return value;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonObject::key(std::string_view key) {
  if (text_.size() > 1) text_ += ',';
  text_ += '"';
  text_ += json_escape(key);
  text_ += "\":";
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  this->key(key);
  text_ += '"';
  text_ += json_escape(value);
  text_ += '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  if (std::isnan(value)) return number(key, "NaN");
  if (std::isinf(value)) {
    return number(key, value > 0 ? "Infinity" : "-Infinity");
  }
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                  std::chars_format::general, 17)
                        .ptr;
  return number(key, std::string_view(buf, end));
}

JsonObject& JsonObject::field(std::string_view key, const JsonObject& value) {
  this->key(key);
  text_ += value.text_;
  text_ += '}';
  return *this;
}

JsonObject& JsonObject::number(std::string_view key, std::string_view token) {
  this->key(key);
  text_ += token;
  return *this;
}

}  // namespace geogossip
