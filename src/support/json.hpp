// The reader, writer and string escaper of every JSON file the library
// writes: replicate records and summary lines, heartbeats, fleet plans,
// tickets, leases, done markers and worker stats, and trace events.
//
// The library reads back only what it writes itself, so a small strict
// parser suffices: anything it rejects is by definition not a file this
// library produced intact, and each caller applies its own tolerance
// policy (skip-and-count for checkpoint lines, reclaim-or-restart for
// leases).  Extensions beyond RFC 8259 match what JsonObject emits: the
// non-finite tokens NaN / Infinity / -Infinity (accepted by Python's json
// module), and exact uint64 capture for digits-only tokens whose values
// exceed the 2^53 double-exact range (seeds, XL transmission counts).
#ifndef GEOGOSSIP_SUPPORT_JSON_HPP
#define GEOGOSSIP_SUPPORT_JSON_HPP

#include <charconv>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geogossip {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uint_value = 0;
  bool is_uint = false;  ///< digits-only token: uint_value is exact
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> members;
  std::vector<JsonValue> elements;

  /// First member with `key`, or nullptr (objects only).
  const JsonValue* get(std::string_view key) const noexcept {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses exactly one value followed by optional whitespace.  Throws
  /// JsonParseError on anything else — callers decide whether a bad
  /// document is skippable debris or a hard error.
  JsonValue parse();

 private:
  void skip_ws();
  char peek();
  void expect(char c);
  bool consume_literal(std::string_view literal);
  JsonValue parse_value();
  JsonValue parse_object();
  JsonValue parse_array();
  std::string parse_string();
  JsonValue parse_number();

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Convenience: parse one complete JSON document.
inline JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

/// Escapes `text` for embedding inside a JSON string literal: quotes,
/// backslashes and control characters.  JsonParser reads the result back
/// to `text` exactly.
std::string json_escape(std::string_view text);

/// Builds the text of one JSON object, members in call order.  Strings
/// and keys are escaped, integers are exact, and doubles take the record
/// format: 17 significant digits (a round trip through JsonParser gives
/// the same double), and NaN / Infinity / -Infinity for non-finite values
/// — a replicate's error is NaN-propagating and probe metrics are
/// arbitrary doubles.
class JsonObject {
 public:
  JsonObject& field(std::string_view key, std::string_view value);
  /// A template, so a string literal binds to the string_view overload
  /// instead of converting to bool.
  template <std::same_as<bool> Bool>
  JsonObject& field(std::string_view key, Bool value) {
    return number(key, value ? "true" : "false");
  }
  template <std::integral Int>
    requires(!std::same_as<Int, bool>)
  JsonObject& field(std::string_view key, Int value) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return number(key, std::string_view(buf, end));
  }
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, const JsonObject& value);
  /// A number token the caller formatted itself (the trace's fixed-point
  /// microseconds); it is written as given.
  JsonObject& number(std::string_view key, std::string_view token);

  /// The object's text, "{...}", without a trailing newline.
  std::string str() const { return text_ + '}'; }

 private:
  void key(std::string_view key);

  std::string text_ = "{";
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_JSON_HPP
