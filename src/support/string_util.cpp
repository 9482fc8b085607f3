#include "support/string_util.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/check.hpp"

namespace geogossip {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(std::string_view text) {
  std::size_t first = 0;
  std::size_t last = text.size();
  while (first < last &&
         std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  while (last > first &&
         std::isspace(static_cast<unsigned char>(text[last - 1]))) {
    --last;
  }
  return std::string(text.substr(first, last - first));
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string format_sci(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", decimals, value);
  return buf;
}

std::string format_si(double value) {
  const bool negative = value < 0;
  double magnitude = std::abs(value);
  static constexpr const char* kSuffixes[] = {"", "k", "M", "G", "T"};
  int index = 0;
  while (magnitude >= 1000.0 && index < 4) {
    magnitude /= 1000.0;
    ++index;
  }
  std::ostringstream os;
  if (negative) os << '-';
  if (index == 0 && magnitude == std::floor(magnitude)) {
    os << static_cast<long long>(magnitude);
  } else {
    os << format_fixed(magnitude, magnitude < 10 ? 2 : 1);
  }
  os << kSuffixes[index];
  return os.str();
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int counter = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (counter != 0 && counter % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++counter;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

double parse_double(std::string_view text) {
  const std::string trimmed = trim(text);
  GG_CHECK_ARG(!trimmed.empty(), "parse_double: empty input");
  char* end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &end);
  GG_CHECK_ARG(end == trimmed.c_str() + trimmed.size(),
               "parse_double: trailing garbage in '" + trimmed + "'");
  GG_CHECK_ARG(std::isfinite(value),
               "parse_double: '" + trimmed + "' is not a finite number");
  return value;
}

bool parse_bool(std::string_view text) {
  const std::string lowered = to_lower(trim(text));
  if (lowered == "true" || lowered == "1" || lowered == "yes") return true;
  if (lowered == "false" || lowered == "0" || lowered == "no") return false;
  throw ArgumentError("parse_bool: expected true/false, got '" + lowered +
                      "'");
}

}  // namespace geogossip
