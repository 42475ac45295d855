// Parser robustness: randomly mutated inputs must either parse or throw
// ParseError/ContractError — never crash, hang, or corrupt memory — and
// input nested far past any real library is a ParseError, not a stack
// overflow.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "io/blif.hpp"
#include "io/expr.hpp"
#include "io/genlib.hpp"
#include "io/liberty.hpp"
#include "netlist/assert.hpp"

namespace dagmap {
namespace {

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

std::string mutate(const std::string& base, Rng& rng, int edits) {
  std::string s = base;
  for (int e = 0; e < edits && !s.empty(); ++e) {
    std::size_t pos = rng.next() % s.size();
    switch (rng.next() % 4) {
      case 0: s.erase(pos, 1 + rng.next() % 3); break;
      case 1: s.insert(pos, 1, static_cast<char>(32 + rng.next() % 95)); break;
      case 2: s[pos] = static_cast<char>(32 + rng.next() % 95); break;
      default: {  // duplicate a slice
        std::size_t len = std::min<std::size_t>(8, s.size() - pos);
        s.insert(pos, s.substr(pos, len));
        break;
      }
    }
  }
  return s;
}

const char* kBlifSeed =
    ".model fuzz\n.inputs a b c\n.outputs x y\n"
    ".latch d q 0\n"
    ".names a b t\n11 1\n"
    ".names t c d\n1- 1\n-1 1\n"
    ".names q t x\n10 1\n"
    ".names d y\n0 1\n.end\n";

const char* kGenlibSeed =
    "GATE inv 1 O=!a;\n PIN a INV 1 999 1.0 0.2 1.0 0.2\n"
    "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1.2 0.2 1.2 0.2\n"
    "GATE aoi21 3 O=!(a*b+c);\n PIN * INV 1 999 1.6 0.3 1.6 0.3\n";

TEST(ParserRobustness, MutatedBlifNeverCrashes) {
  Rng rng(2024);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = mutate(kBlifSeed, rng, 1 + trial % 6);
    try {
      Network n = parse_blif(text);
      n.check();
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const ContractError&) {
      ++rejected;
    }
  }
  // Both outcomes must occur: light mutations often stay valid, heavy
  // ones get rejected.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ParserRobustness, MutatedGenlibNeverCrashes) {
  Rng rng(777);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = mutate(kGenlibSeed, rng, 1 + trial % 6);
    try {
      auto gates = parse_genlib(text);
      ++parsed;
      (void)gates;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const ContractError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ParserRobustness, ExpressionTorture) {
  Rng rng(31337);
  const std::string alphabet = "ab!*+()' ";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string expr;
    std::size_t len = 1 + rng.next() % 24;
    for (std::size_t i = 0; i < len; ++i)
      expr += alphabet[rng.next() % alphabet.size()];
    try {
      Expr e = parse_expression(expr);
      auto vars = expr_variables(e);
      (void)expr_truth_table(e, vars);
    } catch (const ParseError&) {
    } catch (const ContractError&) {
    }
  }
  SUCCEED();
}

// `open` repeated `depth` times, then `middle`, then `close` as often.
std::string nested(const std::string& open, const std::string& middle,
                   const std::string& close, std::size_t depth) {
  std::string s;
  s.reserve(depth * (open.size() + close.size()) + middle.size());
  for (std::size_t i = 0; i < depth; ++i) s += open;
  s += middle;
  for (std::size_t i = 0; i < depth; ++i) s += close;
  return s;
}

constexpr std::size_t kHostileDepth = 200'000;

void expect_too_deep(const std::function<void()>& parse) {
  try {
    parse();
    ADD_FAILURE() << "deeply nested input parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParserRobustness, DeepGenlibExpressionIsAParseError) {
  std::string text = "GATE deep 1 O=" +
                     nested("!(", "a", ")", kHostileDepth) +
                     ";\n PIN a INV 1 999 1 0 1 0\n";
  expect_too_deep([&] { parse_genlib(text); });
  // Prefix negations without parentheses nest the same way.
  expect_too_deep(
      [&] { parse_expression(std::string(kHostileDepth, '!') + "a"); });
  // The cap leaves room for any real gate function: each "!(" is two
  // levels, a negation and a parenthesis.
  EXPECT_NO_THROW(parse_expression(nested("!(", "a", ")", 100)));
}

const char* kLibertyInv =
    "  cell (inv) { area : 1;\n"
    "    pin (a) { direction : input; capacitance : 1; }\n"
    "    pin (o) { direction : output; function : \"!a\";\n"
    "      timing () { related_pin : \"a\"; intrinsic_rise : 1;\n"
    "        intrinsic_fall : 1; rise_resistance : 0; fall_resistance : 0; }\n"
    "    }\n"
    "  }\n";

TEST(ParserRobustness, DeepLibertyGroupsAreAParseError) {
  std::string text = std::string("library (deep) {\n") + kLibertyInv +
                     nested("g (x) { ", "", "} ", kHostileDepth) + "}\n";
  expect_too_deep([&] { parse_liberty(text); });
}

TEST(ParserRobustness, DeepLibertyFunctionSkipsTheCell) {
  // A function the reader cannot use skips its cell; the rest of the
  // library still loads.
  std::string deep = nested("!(", "a", ")", kHostileDepth);
  std::string text =
      std::string("library (deep) {\n") + kLibertyInv +
      "  cell (deep) { area : 1;\n"
      "    pin (a) { direction : input; capacitance : 1; }\n"
      "    pin (o) { direction : output; function : \"" + deep + "\"; }\n"
      "  }\n"
      "}\n";
  LibertyLibrary lib = parse_liberty(text);
  ASSERT_EQ(lib.gates.size(), 1u);
  EXPECT_EQ(lib.gates[0].name, "inv");
  EXPECT_EQ(lib.cells_skipped, 1u);
}

}  // namespace
}  // namespace dagmap
