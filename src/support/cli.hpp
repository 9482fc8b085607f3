// Tiny declarative command-line flag parser used by examples and benches.
//
// Supports --name=value and --name value forms, bool flags without a value
// ("--verbose") and automatic --help text.  Every word on the command line
// is a flag or a flag's value: an unknown flag or a stray word
// ("--sizes 64 128", "--quick false") is a parse error, so typos in sweep
// scripts fail loudly instead of running another sweep.  The parser owns every
// range check a flag's type implies: counts are unsigned, so a negative
// or out-of-range count is a parse error rather than a wrapped value, and
// list flags take comma-separated values ("--sizes=512,2048") whose empty
// entries are skipped ("--sizes=" is the empty list).
#ifndef GEOGOSSIP_SUPPORT_CLI_HPP
#define GEOGOSSIP_SUPPORT_CLI_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace geogossip {

/// What ArgParser::parse found.  Drivers translate this into an exit code
/// with parse_exit_code(): --help is a successful run (0), a malformed
/// command line is a failure (1) — so CI smoke runs cannot silently pass
/// on typos.
enum class ParseResult {
  kOk,    ///< flags consumed; proceed
  kHelp,  ///< --help printed; exit 0 without running
  kError, ///< unknown flag, stray word or malformed value, reported on
          ///< stderr; exit 1
};

/// Conventional process exit code for a non-kOk parse result.
int parse_exit_code(ParseResult result) noexcept;

/// A program's entry point: returns body(argc, argv).  A value the flags
/// accept but the program cannot use (`--n=1`, an empty `--sizes`)
/// throws ArgumentError from a scenario builder or the Runner, and a
/// failed file operation (a full disk, an unreadable snapshot) throws
/// IoError; either is printed as "<program>: <message>" on stderr,
/// <program> being argv[0]'s base name, and the exit code is 1.  Every
/// bench driver and example main() is one call to this.
int run_main(int argc, char** argv, int (*body)(int, char**));

class ArgParser {
 public:
  /// Flag targets.  Counts (std::uint32_t, std::uint64_t, list entries)
  /// reject a sign and any value past their type's maximum; doubles must
  /// be finite; a list value replaces the whole default list.
  using Target =
      std::variant<std::uint32_t*, std::uint64_t*, double*, std::string*,
                   bool*, std::vector<std::size_t>*, std::vector<double>*,
                   std::vector<std::string>*>;

  /// `program` and `summary` appear in the --help output.
  ArgParser(std::string program, std::string summary);

  /// Registers a flag; the target must outlive parse().  Its current value
  /// is taken as the documented default.
  void add_flag(const std::string& name, Target target,
                const std::string& help);

  /// Parses argv.  Returns kHelp if --help was requested (help text already
  /// printed to stdout) and kError on an unknown flag, a word that is no
  /// flag's value, or a malformed value (a one-line diagnostic naming it
  /// already printed to stderr; the flag's target keeps its previous
  /// value).  Never throws on bad input, so every main() can be a simple
  /// result check.
  ParseResult parse(int argc, const char* const* argv);

  /// True when the last parse() named the registered flag `name`, so a
  /// program can tell a flag set to its default from an absent one.
  /// Throws ArgumentError when no flag `name` is registered.
  bool given(const std::string& name) const;

  std::string help_text() const;

 private:
  struct Flag {
    std::string name;
    Target target;
    std::string help;
    std::string default_text;
    bool given = false;
  };

  Flag* find(const std::string& name) noexcept;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
};

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_CLI_HPP
