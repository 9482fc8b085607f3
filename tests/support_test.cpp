// Unit tests for the support module: RNG, checks, strings, CSV, JSON,
// CLI, logging, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace geogossip {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(GG_CHECK(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(GG_CHECK_ARG(true, "ok"));
}

TEST(Check, FailingInvariantThrowsCheckError) {
  EXPECT_THROW(GG_CHECK(false, "boom"), CheckError);
}

TEST(Check, FailingArgumentThrowsArgumentError) {
  EXPECT_THROW(GG_CHECK_ARG(false, "bad arg"), ArgumentError);
}

TEST(Check, MessageContainsExpressionAndLocation) {
  try {
    GG_CHECK(2 < 1, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Check, LibraryLocationIsRelativeToTheSourceTree) {
  // The build maps the source directory away, so a diagnostic names
  // src/support/..., not the directory the binary was built in, whether
  // the check sits in a header (below) or in a .cpp file (uniform).
  Rng rng(1);
  const auto expect_location = [](const auto& call, const std::string& at) {
    try {
      call();
      FAIL() << "expected ArgumentError";
    } catch (const ArgumentError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(" at " + at + ":"), std::string::npos) << what;
      EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
    }
  };
  expect_location([&] { (void)rng.below(0); }, "src/support/rng.hpp");
  expect_location([&] { (void)rng.uniform(1.0, 0.0); }, "src/support/rng.cpp");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(7, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRespectsBoundsAndValidatesThem) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
  EXPECT_THROW(rng.uniform(1.0, 1.0), ArgumentError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ArgumentError);
}

TEST(Rng, BelowCoversRangeUniformly) {
  Rng rng(5);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBuckets), 600);
  }
  EXPECT_THROW(rng.below(0), ArgumentError);
}

TEST(Rng, BelowExcludingNeverReturnsExcluded) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below_excluding(7, 3);
    EXPECT_NE(v, 3u);
    EXPECT_LT(v, 7u);
  }
  EXPECT_THROW(rng.below_excluding(1, 0), ArgumentError);
}

TEST(Rng, BernoulliEdgeCasesAndRate) {
  Rng rng(8);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.02);
}

// ---------------------------------------------------------- string_util ----

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StringUtil, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
  EXPECT_EQ(format_si(1234.0), "1.23k");
  EXPECT_EQ(format_si(12.0), "12");
  EXPECT_EQ(format_si(5.1e7), "51.0M");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(7), "7");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 "), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_THROW(parse_double("abc"), ArgumentError);
  EXPECT_THROW(parse_double("1.5x"), ArgumentError);
  EXPECT_THROW(parse_double(""), ArgumentError);
  EXPECT_THROW(parse_double("nan"), ArgumentError);
  EXPECT_THROW(parse_double("inf"), ArgumentError);
  EXPECT_THROW(parse_double("1e400"), ArgumentError);
}

TEST(StringUtil, ParseBool) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("YES"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("No"));
  EXPECT_THROW(parse_bool("maybe"), ArgumentError);
}

// -------------------------------------------------------------- logging ----

TEST(Logging, LevelFiltering) {
  std::ostringstream sink;
  LogConfig::set_sink(sink);
  LogConfig::set_level(LogLevel::kWarn);
  log_info("hidden ", 1);
  log_warn("visible ", 2);
  LogConfig::set_level(LogLevel::kWarn);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 2"), std::string::npos);
  LogConfig::set_sink(std::cerr);
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

// ------------------------------------------------------------------ csv ----

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"n", "value"});
  csv.field(std::int64_t{10}).field(3.5).end_row();
  csv.row({"20", "x,y"});
  EXPECT_EQ(out.str(), "n,value\n10,3.5\n20,\"x,y\"\n");
}

TEST(Csv, EnforcesDiscipline) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.field("premature"), CheckError);  // row before header
  csv.header({"a", "b"});
  EXPECT_THROW(csv.header({"again"}), CheckError);
  csv.field("1");
  EXPECT_THROW(csv.end_row(), CheckError);  // width mismatch
}

// ----------------------------------------------------------------- json ----

TEST(Sinks, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  // The parser reads every escape back to the original bytes.
  std::string all_controls;
  for (char c = 0; c < 0x20; ++c) all_controls += c;
  const std::string text = "q\"b\\" + all_controls + "z";
  EXPECT_EQ(parse_json("\"" + json_escape(text) + "\"").text, text);
}

TEST(Sinks, JsonObjectRoundTripsEveryFieldKind) {
  std::string controls;
  for (char c = 0; c < 0x20; ++c) controls += c;
  const std::string text = "q\"b\\" + controls + "z";
  const double inf = std::numeric_limits<double>::infinity();
  const double digits17 = 0.12345678901234567;
  const std::string line =
      JsonObject()
          .field(text, text)
          .field("literal", "yes")
          .field("yes", true)
          .field("no", false)
          .field("int64_min", INT64_MIN)
          .field("uint64_max", UINT64_MAX)
          .field("tenth", 0.1)
          .field("subnormal", 1e-310)
          .field("digits17", digits17)
          .field("nan", std::numeric_limits<double>::quiet_NaN())
          .field("inf", inf)
          .field("minus_inf", -inf)
          .field("nested", JsonObject().field("x", 3).field("y", "z"))
          .field("empty", JsonObject())
          .str();
  EXPECT_NE(line.find("\"int64_min\":-9223372036854775808,"),
            std::string::npos)
      << line;

  const JsonValue doc = parse_json(line);
  ASSERT_EQ(doc.members.size(), 14u);
  EXPECT_EQ(doc.members[0].first, text);
  EXPECT_EQ(doc.members[0].second.text, text);
  EXPECT_EQ(doc.members[1].first, "literal");  // members in call order
  EXPECT_EQ(doc.get("literal")->kind, JsonValue::Kind::kString);
  EXPECT_EQ(doc.get("literal")->text, "yes");
  EXPECT_EQ(doc.get("yes")->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(doc.get("yes")->boolean);
  EXPECT_EQ(doc.get("no")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(doc.get("no")->boolean);
  EXPECT_EQ(doc.get("int64_min")->number, -0x1p63);
  ASSERT_TRUE(doc.get("uint64_max")->is_uint);
  EXPECT_EQ(doc.get("uint64_max")->uint_value, UINT64_MAX);
  EXPECT_EQ(doc.get("tenth")->number, 0.1);
  EXPECT_EQ(doc.get("subnormal")->number, 1e-310);
  EXPECT_EQ(doc.get("digits17")->number, digits17);
  EXPECT_TRUE(std::isnan(doc.get("nan")->number));
  EXPECT_EQ(doc.get("inf")->number, inf);
  EXPECT_EQ(doc.get("minus_inf")->number, -inf);
  const JsonValue* nested = doc.get("nested");
  ASSERT_EQ(nested->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(nested->get("x")->uint_value, 3u);
  EXPECT_EQ(nested->get("y")->text, "z");
  EXPECT_EQ(doc.get("empty")->kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(doc.get("empty")->members.empty());
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesAllValueForms) {
  std::uint32_t n = 10;
  double eps = 0.5;
  std::string name = "default";
  bool verbose = false;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  parser.add_flag("eps", &eps, "accuracy");
  parser.add_flag("name", &name, "label");
  parser.add_flag("verbose", &verbose, "chatty");

  const char* argv[] = {"prog", "--n=42", "--eps", "0.125",
                        "--name=run1", "--verbose"};
  ASSERT_EQ(parser.parse(6, argv), ParseResult::kOk);
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.125);
  EXPECT_EQ(name, "run1");
  EXPECT_TRUE(verbose);
}

TEST(Cli, RejectsStrayWords) {
  // A list written with spaces or a bool given a separate value would
  // otherwise run the default sweep: the word that follows is no flag's.
  std::vector<std::size_t> sizes{512};
  bool quick = false;
  ArgParser parser("prog", "test");
  parser.add_flag("sizes", &sizes, "n values");
  parser.add_flag("quick", &quick, "small sweep");
  const std::vector<std::vector<const char*>> cases = {
      {"prog", "--sizes", "64", "128"},
      {"prog", "--quick", "false"},
      {"prog", "e7-connectivity-quick"}};
  for (const auto& argv : cases) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
              ParseResult::kError)
        << argv.back();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string("'") + argv.back() + "'"),
              std::string::npos)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

TEST(Cli, GivenTellsANamedFlagFromItsDefault) {
  double seconds = 5.0;
  std::string path;
  ArgParser parser("prog", "test");
  parser.add_flag("seconds", &seconds, "interval");
  parser.add_flag("path", &path, "output");
  const char* named[] = {"prog", "--seconds=5"};
  ASSERT_EQ(parser.parse(2, named), ParseResult::kOk);
  EXPECT_TRUE(parser.given("seconds"));
  EXPECT_FALSE(parser.given("path"));
  // Each parse() starts afresh.
  const char* none[] = {"prog"};
  ASSERT_EQ(parser.parse(1, none), ParseResult::kOk);
  EXPECT_FALSE(parser.given("seconds"));
  EXPECT_THROW(parser.given("no-such-flag"), ArgumentError);
}

TEST(Cli, BoolExplicitValueForm) {
  bool flag = true;
  ArgParser parser("prog", "test");
  parser.add_flag("flag", &flag, "a bool");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_EQ(parser.parse(2, argv), ParseResult::kOk);
  EXPECT_FALSE(flag);
}

TEST(Cli, RejectsUnknownFlagAndMissingValueWithKError) {
  std::uint64_t n = 0;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  const char* bad[] = {"prog", "--bogus=1"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(parser.parse(2, bad), ParseResult::kError);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--bogus"),
            std::string::npos);
  const char* missing[] = {"prog", "--n"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(parser.parse(2, missing), ParseResult::kError);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("expects a value"),
            std::string::npos);
  const char* malformed[] = {"prog", "--n=abc"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(parser.parse(2, malformed), ParseResult::kError);
  testing::internal::GetCapturedStderr();

  // A double reports like a count: one plain line naming the value.
  double budget = 0.0;
  parser.add_flag("budget", &budget, "gigabytes");
  for (const std::string bad : {"nan", "abc", ""}) {
    const std::string arg = "--budget=" + bad;
    const char* argv[] = {"prog", arg.c_str()};
    testing::internal::CaptureStderr();
    EXPECT_EQ(parser.parse(2, argv), ParseResult::kError) << arg;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "prog: --budget: '" + bad +
                       "' is not a finite number; see --help\n");
  }
}

TEST(Cli, ExitCodesDistinguishHelpFromError) {
  // --help is a successful run; a typo must fail the process so CI smoke
  // runs cannot silently pass on malformed command lines.
  EXPECT_EQ(parse_exit_code(ParseResult::kHelp), 0);
  EXPECT_EQ(parse_exit_code(ParseResult::kError), 1);
  EXPECT_EQ(parse_exit_code(ParseResult::kOk), 0);
}

TEST(Cli, RunMainReportsAnArgumentErrorAndExitsOne) {
  char program[] = "bench/fig_e2_tail_bound";
  char* argv[] = {program, nullptr};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(1, argv,
                     [](int, char**) -> int {
                       throw ArgumentError("make_e2_tail: n >= 2");
                     }),
            1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "fig_e2_tail_bound: make_e2_tail: n >= 2\n");
  // A failed file operation is reported the same way.
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(1, argv,
                     [](int, char**) -> int {
                       throw IoError("cannot read 'snaps/snap-c0-r0.ggsnap'");
                     }),
            1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "fig_e2_tail_bound: cannot read 'snaps/snap-c0-r0.ggsnap'\n");
  // Any other outcome is the body's own exit code.
  EXPECT_EQ(run_main(1, argv, [](int, char**) { return 3; }), 3);
}

TEST(Cli, RejectsDuplicateRegistration) {
  std::uint32_t n = 0;
  ArgParser parser("prog", "test");
  parser.add_flag("n", &n, "count");
  EXPECT_THROW(parser.add_flag("n", &n, "again"), ArgumentError);
}

TEST(Cli, HelpReturnsKHelpAndMentionsFlags) {
  std::uint64_t n = 3;
  ArgParser parser("prog", "summary line");
  parser.add_flag("n", &n, "the count");
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(parser.parse(2, argv), ParseResult::kHelp);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("summary line"), std::string::npos);
  EXPECT_NE(out.find("--n"), std::string::npos);
  EXPECT_NE(out.find("default: 3"), std::string::npos);
}

TEST(Cli, CountsAreRangeCheckedAndListsSkipEmptyEntries) {
  std::uint32_t count32 = 7;
  std::uint64_t count64 = 7;
  std::vector<std::size_t> sizes{500, 2000, 8000};
  std::vector<double> factors{0.5, 1.5};
  std::vector<std::string> names{"a"};
  ArgParser parser("prog", "test");
  parser.add_flag("count32", &count32, "32-bit count");
  parser.add_flag("count64", &count64, "64-bit count");
  parser.add_flag("sizes", &sizes, "n values");
  parser.add_flag("factors", &factors, "multipliers");
  parser.add_flag("names", &names, "labels");
  const auto parse = [&parser](const std::string& arg) {
    const char* argv[] = {"prog", arg.c_str()};
    testing::internal::CaptureStderr();
    const ParseResult result = parser.parse(2, argv);
    testing::internal::GetCapturedStderr();
    return result;
  };

  // A sign or the first value past the type's maximum is an error, never
  // a wrapped count, and the target keeps its value.
  for (const std::string bad :
       {"--count32=-1", "--count32=4294967296", "--count64=-1",
        "--count64=18446744073709551616", "--sizes=64,-1",
        "--sizes=64,18446744073709551616", "--factors=1,1e400",
        "--factors=nan"}) {
    EXPECT_EQ(parse(bad), ParseResult::kError) << bad;
  }
  EXPECT_EQ(count32, 7u);
  EXPECT_EQ(count64, 7u);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{500, 2000, 8000}));
  EXPECT_EQ(factors, (std::vector<double>{0.5, 1.5}));

  ASSERT_EQ(parse("--count32=4294967295"), ParseResult::kOk);
  EXPECT_EQ(count32, 4294967295u);
  ASSERT_EQ(parse("--count64=18446744073709551615"), ParseResult::kOk);
  EXPECT_EQ(count64, 18446744073709551615u);
  ASSERT_EQ(parse("--sizes=18446744073709551615"), ParseResult::kOk);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{18446744073709551615u}));

  // Empty entries are skipped, so an empty value is the empty list.
  ASSERT_EQ(parse("--sizes=64,,128,"), ParseResult::kOk);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{64, 128}));
  ASSERT_EQ(parse("--sizes="), ParseResult::kOk);
  EXPECT_TRUE(sizes.empty());
  ASSERT_EQ(parse("--factors=-1,,2.5,"), ParseResult::kOk);
  EXPECT_EQ(factors, (std::vector<double>{-1.0, 2.5}));
  ASSERT_EQ(parse("--names= x.jsonl,,y.jsonl "), ParseResult::kOk);
  EXPECT_EQ(names, (std::vector<std::string>{"x.jsonl", "y.jsonl"}));

  // --help joins a list default with commas.
  std::vector<std::size_t> default_sizes{500, 2000, 8000};
  std::vector<double> default_factors{0.6, 1.0};
  ArgParser help("prog", "test");
  help.add_flag("sizes", &default_sizes, "n values");
  help.add_flag("factors", &default_factors, "multipliers");
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(help.parse(2, argv), ParseResult::kHelp);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("default: 500,2000,8000"), std::string::npos);
  EXPECT_NE(out.find("default: 0.6,1)"), std::string::npos);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
  ConsoleTable table({"name", "value"});
  table.set_alignment(0, Align::kLeft);
  table.cell("a").cell(std::int64_t{1}).end_row();
  table.cell("long-name").cell(std::int64_t{22}).end_row();
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  // Header rule present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RejectsRowWidthMismatch) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ArgumentError);
}

TEST(Table, DoubleFormatting) {
  ConsoleTable table({"x"});
  table.cell(1.23456, 2).end_row();
  EXPECT_NE(table.to_string().find("1.23"), std::string::npos);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  AsciiChart::Options options;
  options.width = 32;
  options.height = 8;
  options.log_y = true;
  AsciiChart chart(options);
  chart.add_series("decay", '*', {0, 1, 2, 3}, {1.0, 0.1, 0.01, 0.001});
  std::ostringstream os;
  chart.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find("decay"), std::string::npos);
}

TEST(AsciiChart, EmptyChartDoesNotCrash) {
  AsciiChart chart;
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace geogossip
