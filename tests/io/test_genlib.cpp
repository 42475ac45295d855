// Unit tests for the GENLIB reader/writer.
#include "io/genlib.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <locale>

#include "io/number.hpp"

namespace dagmap {
namespace {

const char* kSmallLib = R"(
# a tiny library
GATE inv 1.0 O=!a;
  PIN a INV 1 999 1.0 0.2 1.0 0.2
GATE nand2 2.0 O=!(a*b);
  PIN * INV 1 999 1.5 0.2 1.5 0.2
GATE aoi21 3.0 O=!(a*b+c);
  PIN a INV 1 999 2.1 0.3 2.0 0.3
  PIN b INV 1 999 2.1 0.3 2.0 0.3
  PIN c INV 1 999 1.6 0.3 1.6 0.3
)";

TEST(Genlib, ParsesGatesAndPins) {
  auto gates = parse_genlib(kSmallLib);
  ASSERT_EQ(gates.size(), 3u);
  EXPECT_EQ(gates[0].name, "inv");
  EXPECT_DOUBLE_EQ(gates[0].area, 1.0);
  EXPECT_EQ(gates[0].output_name, "O");
  EXPECT_EQ(gates[0].pins.size(), 1u);
  EXPECT_EQ(gates[1].pins[0].name, "*");
  EXPECT_DOUBLE_EQ(gates[1].pins[0].rise_block, 1.5);
  EXPECT_EQ(gates[2].pins.size(), 3u);
  EXPECT_DOUBLE_EQ(gates[2].pins[2].rise_block, 1.6);
}

TEST(Genlib, FunctionParsesToExpectedTruthTable) {
  auto gates = parse_genlib(kSmallLib);
  const Expr& aoi = gates[2].function;
  auto vars = expr_variables(aoi);
  ASSERT_EQ(vars.size(), 3u);
  TruthTable t = expr_truth_table(aoi, vars);
  TruthTable want = ~((TruthTable::variable(0, 3) & TruthTable::variable(1, 3)) |
                      TruthTable::variable(2, 3));
  EXPECT_EQ(t, want);
}

TEST(Genlib, RoundTripsThroughWriter) {
  auto gates = parse_genlib(kSmallLib);
  std::string text = write_genlib(gates);
  auto gates2 = parse_genlib(text);
  ASSERT_EQ(gates2.size(), gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    EXPECT_EQ(gates2[i].name, gates[i].name);
    EXPECT_DOUBLE_EQ(gates2[i].area, gates[i].area);
    ASSERT_EQ(gates2[i].pins.size(), gates[i].pins.size());
    for (std::size_t p = 0; p < gates[i].pins.size(); ++p) {
      EXPECT_EQ(gates2[i].pins[p].name, gates[i].pins[p].name);
      EXPECT_DOUBLE_EQ(gates2[i].pins[p].rise_block,
                       gates[i].pins[p].rise_block);
    }
    auto v1 = expr_variables(gates[i].function);
    auto v2 = expr_variables(gates2[i].function);
    EXPECT_EQ(expr_truth_table(gates[i].function, v1),
              expr_truth_table(gates2[i].function, v2));
  }
}

// Doubles that six significant digits cannot carry come back bit-exact:
// the writer prints the shortest form that parses to the same value.
TEST(Genlib, WriterRoundTripsEveryDoubleExactly) {
  auto gates = parse_genlib(kSmallLib);
  GenlibPin& pin = gates[2].pins[0];
  gates[2].area = 1.2 + 1.0;               // 2.2000000000000002
  pin.rise_block = 0.7 + 0.15 + 0.12 * 2;  // 1.0899999999999999
  pin.fall_block = 1.0 / 3.0;
  pin.input_load = 1e-7;
  pin.max_load = 123456789.0;
  pin.rise_fanout = -0.0625;
  auto again = parse_genlib(write_genlib(gates));
  ASSERT_EQ(again.size(), gates.size());
  const GenlibPin& back = again[2].pins[0];
  EXPECT_EQ(again[2].area, gates[2].area);
  EXPECT_EQ(back.rise_block, pin.rise_block);
  EXPECT_EQ(back.fall_block, pin.fall_block);
  EXPECT_EQ(back.input_load, pin.input_load);
  EXPECT_EQ(back.max_load, pin.max_load);
  EXPECT_EQ(back.rise_fanout, pin.rise_fanout);
  EXPECT_EQ(format_double_shortest(1.09), "1.09");
  EXPECT_EQ(format_double_shortest(999.0), "999");
}

TEST(Genlib, FunctionMaySpanSpaces) {
  auto gates = parse_genlib("GATE or2 2 O = a + b;\n PIN * NONINV 1 999 1 0 1 0\n");
  ASSERT_EQ(gates.size(), 1u);
  auto vars = expr_variables(gates[0].function);
  EXPECT_EQ(expr_truth_table(gates[0].function, vars),
            TruthTable::variable(0, 2) | TruthTable::variable(1, 2));
}

TEST(Genlib, CommentsIgnoredAnywhere) {
  auto gates = parse_genlib(
      "# header\nGATE buf 1 O=a; # trailing\n PIN a NONINV 1 999 1 0 1 0\n");
  ASSERT_EQ(gates.size(), 1u);
}

TEST(Genlib, ErrorsOnMalformedFiles) {
  EXPECT_THROW(parse_genlib("PIN a INV 1 999 1 0 1 0\n"), ParseError);
  EXPECT_THROW(parse_genlib("GATE x 1 O=a\n"), ParseError);  // missing ';'
  EXPECT_THROW(parse_genlib("GATE x 1 a;\n"), ParseError);   // missing '='
  EXPECT_THROW(parse_genlib("FROB x\n"), ParseError);
  EXPECT_THROW(parse_genlib("GATE x notanumber O=a;\n"), ParseError);
  EXPECT_THROW(
      parse_genlib("GATE x 1 O=a;\n PIN a SIDEWAYS 1 999 1 0 1 0\n"),
      ParseError);
}

TEST(Genlib, ConstantGates) {
  auto gates = parse_genlib("GATE zero 0 O=CONST0;\nGATE one 0 O=CONST1;\n");
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].function.op, Expr::Op::Const0);
  EXPECT_EQ(gates[1].function.op, Expr::Op::Const1);
}

// A numpunct facet with ',' as the decimal point — what a de_DE-style
// locale installs.  Injected directly so the test does not depend on
// which locales the host has generated.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// RAII: installs a comma-decimal locale globally (both the C++ global
// locale and, when the host has one, the C locale that stod/strtod
// honor) and restores the previous state on destruction.
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

TEST(Genlib, ParsesDotDecimalsUnderCommaLocale) {
  // Regression: parse_double used std::stod, which honors the C numeric
  // locale — under a comma-decimal locale "1.5" parsed as 1 (and the
  // locale-aware stream fallback would accept "1,5").  GENLIB numbers
  // are '.'-formatted by definition, whatever the process locale.
  CommaLocaleGuard guard;
  auto gates = parse_genlib(kSmallLib);
  ASSERT_EQ(gates.size(), 3u);
  EXPECT_DOUBLE_EQ(gates[1].pins[0].rise_block, 1.5);
  EXPECT_DOUBLE_EQ(gates[2].pins[2].rise_block, 1.6);
  EXPECT_DOUBLE_EQ(gates[2].area, 3.0);
}

TEST(Genlib, WriterEmitsDotDecimalsUnderCommaLocale) {
  CommaLocaleGuard guard;
  auto gates = parse_genlib(kSmallLib);
  std::string text = write_genlib(gates);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_EQ(text.find("1,5"), std::string::npos);
  // And the round trip still agrees under the hostile locale.
  auto again = parse_genlib(text);
  ASSERT_EQ(again.size(), gates.size());
  EXPECT_DOUBLE_EQ(again[1].pins[0].rise_block, 1.5);
}

TEST(Genlib, ParseDoubleStrictRejectsGarbage) {
  EXPECT_EQ(parse_double_strict("1.5").value(), 1.5);
  EXPECT_EQ(parse_double_strict("+2").value(), 2.0);
  EXPECT_EQ(parse_double_strict("-0.25").value(), -0.25);
  EXPECT_EQ(parse_double_strict("1e3").value(), 1000.0);
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict("abc").has_value());
  EXPECT_FALSE(parse_double_strict("1.5x").has_value());
  EXPECT_FALSE(parse_double_strict("1,5").has_value());
}

}  // namespace
}  // namespace dagmap
