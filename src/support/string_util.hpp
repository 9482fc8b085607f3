// Small string/number formatting helpers shared by the CLI, the table
// printer and the CSV writer.
#ifndef GEOGOSSIP_SUPPORT_STRING_UTIL_HPP
#define GEOGOSSIP_SUPPORT_STRING_UTIL_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace geogossip {

/// Splits on a single-character delimiter; empty fields are kept.
std::vector<std::string> split(std::string_view text, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Fixed-point with the given number of decimals, e.g. format_fixed(3.14159,2)
/// == "3.14".
std::string format_fixed(double value, int decimals);

/// Scientific with the given number of significant decimals, "1.23e+04".
std::string format_sci(double value, int decimals);

/// Compact engineering suffix form: 1234 -> "1.23k", 5.1e7 -> "51.0M".
std::string format_si(double value);

/// Thousands-separated integer: 1234567 -> "1,234,567".
std::string format_count(std::uint64_t value);

/// Lowercase copy (ASCII).
std::string to_lower(std::string_view text);

/// Parses a finite double, throwing ArgumentError on malformed input, on
/// nan/inf and on values that overflow a double (e.g. "1e400").
double parse_double(std::string_view text);

/// Parses "true/false/1/0/yes/no" (case-insensitive).
bool parse_bool(std::string_view text);

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_STRING_UTIL_HPP
