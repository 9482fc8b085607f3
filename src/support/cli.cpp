#include "support/cli.hpp"

#include <charconv>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip {

namespace {

/// Parses an unsigned count.  from_chars accepts no sign, so "-1" is
/// malformed rather than wrapped, and a value past T's maximum is out of
/// range rather than truncated.
template <typename T>
T parse_count(std::string_view text) {
  const std::string trimmed = trim(text);
  T value = 0;
  const auto [ptr, ec] = std::from_chars(
      trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    throw ArgumentError("'" + trimmed + "' is not an integer in [0, " +
                        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return value;
}

/// Parses one flag value; throws ArgumentError on malformed or
/// out-of-range text.
template <typename T>
T parse_value(const std::string& text) {
  if constexpr (std::is_same_v<T, bool>) {
    return parse_bool(text);
  } else if constexpr (std::is_unsigned_v<T>) {
    return parse_count<T>(text);
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double(text);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else {
    T values;
    for (const std::string& entry : split(text, ',')) {
      const std::string item = trim(entry);
      if (!item.empty()) {
        values.push_back(parse_value<typename T::value_type>(item));
      }
    }
    return values;
  }
}

/// The --help rendering of a default value; lists join with commas.
template <typename T>
std::string format_value(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream os;
    os << value;
    return os.str();
  } else {
    std::string joined;
    for (const auto& item : value) {
      if (!joined.empty()) joined += ',';
      joined += format_value(item);
    }
    return joined;
  }
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_flag(const std::string& name, Target target,
                         const std::string& help) {
  GG_CHECK_ARG(find(name) == nullptr, "duplicate flag --" + name);
  std::string default_text = std::visit(
      [](auto* value) {
        GG_CHECK_ARG(value != nullptr, "add_flag: null target");
        return format_value(*value);
      },
      target);
  if (default_text.empty()) default_text = "\"\"";
  flags_.push_back(Flag{name, target, help, std::move(default_text)});
}

ArgParser::Flag* ArgParser::find(const std::string& name) noexcept {
  for (auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool ArgParser::given(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return f.given;
  }
  throw ArgumentError("given: no flag --" + name + " is registered");
}

int parse_exit_code(ParseResult result) noexcept {
  return result == ParseResult::kError ? 1 : 0;
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const ArgumentError& error) {
    const std::string_view path = argc > 0 ? argv[0] : "";
    std::cerr << path.substr(path.find_last_of('/') + 1) << ": "
              << error.what() << '\n';
    return 1;
  }
}

ParseResult ArgParser::parse(int argc, const char* const* argv) {
  for (auto& f : flags_) f.given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << help_text();
        return ParseResult::kHelp;
      }
      if (!starts_with(arg, "--")) {
        // No program reads a bare word, so one is a mistake: a list
        // spelled "--sizes 64 128" or a bool spelled "--quick false".
        throw ArgumentError("stray word '" + arg +
                            "': a value goes with its flag, as --name=value "
                            "or --name=a,b for a list");
      }
      std::string name = arg.substr(2);
      std::optional<std::string> inline_value;
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      Flag* flag = find(name);
      if (flag == nullptr) throw ArgumentError("unknown flag --" + name);
      flag->given = true;
      if (!inline_value) {
        if (std::holds_alternative<bool*>(flag->target)) {
          // A bare boolean flag means "true"; an explicit value may follow
          // only in the --name=value form.
          *std::get<bool*>(flag->target) = true;
          continue;
        }
        if (i + 1 == argc) {
          throw ArgumentError("flag --" + name + " expects a value");
        }
        inline_value = argv[++i];
      }
      try {
        // Parse fully before assigning, so a rejected value leaves the
        // target as it was.
        std::visit(
            [&](auto* target) {
              *target = parse_value<std::remove_pointer_t<decltype(target)>>(
                  *inline_value);
            },
            flag->target);
      } catch (const ArgumentError& error) {
        throw ArgumentError("--" + name + ": " + error.what());
      }
    }
  } catch (const ArgumentError& error) {
    std::cerr << program_ << ": " << error.what() << "; see --help\n";
    return ParseResult::kError;
  }
  return ParseResult::kOk;
}

std::string ArgParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nFlags:\n";
  std::size_t width = 0;
  for (const auto& f : flags_) width = std::max(width, f.name.size());
  for (const auto& f : flags_) {
    os << "  --" << f.name << std::string(width - f.name.size(), ' ')
       << "  " << f.help << " (default: " << f.default_text << ")\n";
  }
  os << "  --help" << std::string(width > 4 ? width - 4 : 0, ' ')
     << "  print this message\n";
  return os.str();
}

}  // namespace geogossip
