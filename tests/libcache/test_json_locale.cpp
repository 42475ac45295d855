// Locale independence of the JSONL protocol layer (libcache/json.hpp)
// and the CLI's numeric flag parsing — the comma-decimal regressions
// fixed alongside the load-aware-rounds work.
//
// json.cpp used std::strtod for numbers and snprintf %g for printing;
// both honor LC_NUMERIC, so a de_DE-style process locale silently
// truncated "1.5" to 1.0 on parse and emitted "1,5" (invalid JSON) on
// print.  dagmap_cli's --delay-factor used std::stod, the same bug.
// Everything now routes through parse_double_strict / std::to_chars,
// which never consult the locale.
#include <gtest/gtest.h>

#include <clocale>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "io/number.hpp"
#include "libcache/json.hpp"
#include "libcache/serve.hpp"

namespace dagmap {
namespace {

using libcache::JsonValue;
using libcache::json_number;
using libcache::json_quote;
using libcache::parse_json;

// A numpunct facet with ',' as the decimal point — what a de_DE-style
// locale installs.  Injected directly so the test does not depend on
// which locales the host has generated.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

class CommaLocaleGuard {
 public:
  CommaLocaleGuard()
      : cxx_previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimal))) {
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        c_changed_ = true;
        break;
      }
    }
  }
  ~CommaLocaleGuard() {
    std::locale::global(cxx_previous_);
    if (c_changed_) std::setlocale(LC_NUMERIC, "C");
  }

 private:
  std::locale cxx_previous_;
  bool c_changed_ = false;
};

TEST(JsonLocale, ParsesDotDecimalsUnderCommaLocale) {
  CommaLocaleGuard guard;
  JsonValue v = parse_json(
      "{\"delay\": 12.75, \"factor\": 1.5, \"tiny\": 2.5e-3}");
  EXPECT_DOUBLE_EQ(v.get_number("delay"), 12.75);
  EXPECT_DOUBLE_EQ(v.get_number("factor"), 1.5);
  EXPECT_DOUBLE_EQ(v.get_number("tiny"), 0.0025);
}

TEST(JsonLocale, PrintsDotDecimalsUnderCommaLocale) {
  CommaLocaleGuard guard;
  std::string s = json_number(1.5);
  EXPECT_NE(s.find('.'), std::string::npos) << s;
  EXPECT_EQ(s.find(','), std::string::npos) << s;
}

TEST(JsonLocale, NumbersRoundTripExactlyUnderCommaLocale) {
  CommaLocaleGuard guard;
  for (double v : {0.0, 1.0, -1.5, 12.745, 0.2, 1e-9, 6.02e23, -3.25e-7,
                   123456.789}) {
    std::string printed = json_number(v);
    JsonValue back = parse_json("{\"v\": " + printed + "}");
    EXPECT_EQ(back.get_number("v"), v) << printed;
  }
}

TEST(JsonLocale, CliDoubleFlagParserIgnoresTheLocale) {
  // The path dagmap_cli's --delay-factor / numeric flags run through.
  CommaLocaleGuard guard;
  EXPECT_EQ(parse_double_strict("1.5").value(), 1.5);
  EXPECT_EQ(parse_double_strict("2.25e1").value(), 22.5);
  // The comma spelling is rejected outright, never half-parsed.
  EXPECT_FALSE(parse_double_strict("1,5").has_value());
}

// Fractional everything: areas and blocks with '.5' so truncation bugs
// change observable results.
std::string fractional_genlib() {
  return "GATE inv 1.5 O=!a;\n PIN * INV 1 999 1.5 0 1.5 0\n"
         "GATE nand2 2.5 O=!(a*b);\n PIN * INV 1 999 2.5 0 2.5 0\n";
}

TEST(JsonLocale, ServeRoundTripsUnderCommaLocale) {
  // End-to-end: a request whose options carry fractional numbers, and a
  // response whose delay is fractional, must survive a comma-decimal
  // process locale bit-exactly.
  std::string lib_path = ::testing::TempDir() + "json_locale.genlib";
  {
    std::ofstream out(lib_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << fractional_genlib();
  }
  const char* circ =
      ".model c\n.inputs a b c\n.outputs o\n"
      ".names a b x\n11 1\n.names x c o\n10 1\n.end\n";
  std::string input =
      "{\"circuit\": " + std::string(json_quote(circ)) +
      ", \"library\": " + json_quote(lib_path) +
      ", \"options\": {\"backend\": \"cuts\", \"rounds\": 2, "
      "\"delay_factor\": 1.5}}\n";

  auto serve_once = [&]() {
    std::istringstream in(input);
    std::ostringstream out;
    ServeOptions sopt;
    sopt.auto_save = false;
    ServeSummary summary = run_serve(in, out, sopt);
    EXPECT_EQ(summary.errors, 0u) << out.str();
    return out.str();
  };

  std::string c_locale_response = serve_once();
  std::string comma_response;
  {
    CommaLocaleGuard guard;
    comma_response = serve_once();
  }
  // Bit-identical responses: under the old strtod/%g paths the comma
  // locale truncated the fractional option ("delay_factor": 1.5 -> 1)
  // and printed "1,5"-style numbers into the response line.
  EXPECT_EQ(comma_response, c_locale_response);
  JsonValue r = parse_json(
      c_locale_response.substr(0, c_locale_response.find('\n')));
  EXPECT_TRUE(r.get_bool("ok")) << c_locale_response;
  EXPECT_GT(r.get_number("delay"), 0.0);
  EXPECT_GT(r.get_number("area"), 0.0);
}

}  // namespace
}  // namespace dagmap
