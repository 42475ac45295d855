// Unit + property tests for the Minato–Morreale ISOP extraction.
#include "decomp/isop.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>

namespace dagmap {
namespace {

TEST(Isop, Constants) {
  EXPECT_TRUE(compute_isop(TruthTable::constant(false, 3)).empty());
  auto c1 = compute_isop(TruthTable::constant(true, 3));
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_EQ(c1[0].num_literals(), 0u);
}

TEST(Isop, SingleVariable) {
  auto cover = compute_isop(TruthTable::variable(0, 1));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].pos_mask, 1u);
  EXPECT_EQ(cover[0].neg_mask, 0u);
  auto cover_n = compute_isop(~TruthTable::variable(0, 1));
  ASSERT_EQ(cover_n.size(), 1u);
  EXPECT_EQ(cover_n[0].neg_mask, 1u);
}

TEST(Isop, AndOrXor) {
  TruthTable a = TruthTable::variable(0, 2), b = TruthTable::variable(1, 2);
  EXPECT_EQ(compute_isop(a & b).size(), 1u);
  EXPECT_EQ(compute_isop(a | b).size(), 2u);
  EXPECT_EQ(compute_isop(a ^ b).size(), 2u);
}

TEST(Isop, MajorityHasThreeCubes) {
  TruthTable a = TruthTable::variable(0, 3), b = TruthTable::variable(1, 3),
             c = TruthTable::variable(2, 3);
  TruthTable maj = (a & b) | (b & c) | (a & c);
  auto cover = compute_isop(maj);
  EXPECT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover_to_truth_table(cover, 3), maj);
}

TEST(Isop, CoverToExprMatches) {
  TruthTable f = TruthTable::from_bits(0b0110'1001, 3);  // XNOR3-ish
  auto cover = compute_isop(f);
  Expr e = cover_to_expr(cover, {"a", "b", "c"});
  EXPECT_EQ(expr_truth_table(e, {"a", "b", "c"}), f);
}

TEST(Isop, EmptyCoverIsConst0Expr) {
  Expr e = cover_to_expr({}, {"a"});
  EXPECT_EQ(e.op, Expr::Op::Const0);
}

// Property: for pseudo-random functions across widths, the ISOP cover
// reproduces the function exactly and contains no duplicate cubes.
class IsopProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(IsopProperty, CoverEqualsFunction) {
  unsigned nv = GetParam();
  std::uint64_t state = 0xC0FFEE ^ (nv * 7919);
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable f(nv);
    for (std::size_t m = 0; m < f.num_minterms(); ++m) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      f.set_bit(m, (state >> 61) & 1);
    }
    auto cover = compute_isop(f);
    EXPECT_EQ(cover_to_truth_table(cover, nv), f) << "nv=" << nv;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      EXPECT_EQ(cover[i].pos_mask & cover[i].neg_mask, 0u);
      for (std::size_t j = i + 1; j < cover.size(); ++j)
        EXPECT_FALSE(cover[i] == cover[j]) << "duplicate cube";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IsopProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 10u));

TEST(Isop, WideSparseFunction) {
  // A 12-var function with a handful of minterms stays a small cover.
  TruthTable f(12);
  f.set_bit(0x0FF, true);
  f.set_bit(0xABC, true);
  f.set_bit(0x123, true);
  auto cover = compute_isop(f);
  EXPECT_LE(cover.size(), 3u);
  EXPECT_EQ(cover_to_truth_table(cover, 12), f);
}

TEST(Isop, TruthTableToExprRoundTrip) {
  TruthTable f = TruthTable::from_bits(0b1101'0110'0010'1011, 4);
  std::vector<std::string> vars{"p", "q", "r", "s"};
  Expr e = truth_table_to_expr(f, vars);
  EXPECT_EQ(expr_truth_table(e, vars), f);
}

// ---- properties of the word-parallel recursion ---------------------------

// Seeded pseudo-random function: each minterm is 1 with probability
// `ones_in_64` / 64.  Restricting `support` makes the function ignore
// the other variables, which exercises the search for the split
// variable below the top.
TruthTable seeded_function(unsigned nv, std::uint64_t seed, unsigned ones_in_64,
                           std::size_t support = ~std::size_t{0}) {
  TruthTable f(nv);
  for (std::size_t m = 0; m < f.num_minterms(); ++m) {
    std::uint64_t h = ((m & support) + 1) * 0x9E3779B97F4A7C15ull ^ seed;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    f.set_bit(m, h % 64 < ones_in_64);
  }
  return f;
}

// Calls `fn(m)` for every minterm of cube `c` over `nv` variables.
template <class Fn>
void for_each_minterm(const Cube& c, unsigned nv, Fn fn) {
  std::size_t all = (std::size_t{1} << nv) - 1;
  std::size_t fixed = c.pos_mask | c.neg_mask;
  std::size_t free = all & ~fixed;
  std::size_t sub = 0;
  do {
    fn(c.pos_mask | sub);
    sub = (sub - free) & free;
  } while (sub != 0);
}

// The cover equals f, every cube is prime (dropping any literal leaves
// f), and no cube is redundant (each covers a minterm no other does).
void expect_prime_irredundant_cover(const TruthTable& f) {
  unsigned nv = f.num_vars();
  std::vector<Cube> cover = compute_isop(f);
  std::vector<std::uint8_t> hits(f.num_minterms(), 0);
  for (const Cube& c : cover) {
    ASSERT_EQ(c.pos_mask & c.neg_mask, 0u);
    ASSERT_EQ((c.pos_mask | c.neg_mask) >> nv, 0u);
    for_each_minterm(c, nv, [&](std::size_t m) {
      if (hits[m] < 2) ++hits[m];
    });
  }
  for (std::size_t m = 0; m < f.num_minterms(); ++m)
    ASSERT_EQ(hits[m] > 0, f.bit(m)) << "cover differs from f, nv=" << nv;
  for (const Cube& c : cover) {
    bool essential = false;
    for_each_minterm(c, nv, [&](std::size_t m) { essential |= hits[m] == 1; });
    EXPECT_TRUE(essential) << "redundant cube, nv=" << nv;
    for (unsigned v = 0; v < nv; ++v) {
      std::uint16_t bit = static_cast<std::uint16_t>(1u << v);
      if (!((c.pos_mask | c.neg_mask) & bit)) continue;
      // The half the dropped literal would add must leave f somewhere.
      Cube other{static_cast<std::uint16_t>(c.pos_mask ^ bit),
                 static_cast<std::uint16_t>(c.neg_mask ^ bit)};
      bool leaves_f = false;
      for_each_minterm(other, nv,
                       [&](std::size_t m) { leaves_f |= !f.bit(m); });
      EXPECT_TRUE(leaves_f) << "non-prime cube, nv=" << nv << " var " << v;
    }
  }
}

class IsopPrimeIrredundant : public ::testing::TestWithParam<unsigned> {};

TEST_P(IsopPrimeIrredundant, BothPhasesOfSeededFunctions) {
  unsigned nv = GetParam();
  for (unsigned ones : {8u, 32u, 56u}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      TruthTable f = seeded_function(nv, seed * 1000 + nv, ones);
      expect_prime_irredundant_cover(f);
      expect_prime_irredundant_cover(~f);
      // Support limited to every other variable: the recursion has to
      // walk down past the variables f ignores.
      TruthTable g = seeded_function(nv, seed * 7 + nv, ones, 0x5555);
      expect_prime_irredundant_cover(g);
      expect_prime_irredundant_cover(~g);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ZeroToSixteenVars, IsopPrimeIrredundant,
                         ::testing::Range(0u, 17u));

// ---- exact cube lists ------------------------------------------------------

TruthTable lcg_function(unsigned nv, std::uint64_t seed) {
  TruthTable f(nv);
  std::uint64_t s = seed;
  for (std::size_t m = 0; m < f.num_minterms(); ++m) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    f.set_bit(m, (s >> 61) & 1);
  }
  return f;
}

// OR of `groups` ANDs of `size` fresh variables each.
TruthTable and_or(unsigned groups, unsigned size) {
  unsigned n = groups * size;
  TruthTable f(n);
  for (unsigned g = 0; g < groups; ++g) {
    TruthTable p = TruthTable::constant(true, n);
    for (unsigned i = 0; i < size; ++i)
      p = p & TruthTable::variable(g * size + i, n);
    f = f | p;
  }
  return f;
}

std::map<std::string, TruthTable> fixed_functions() {
  auto v3 = [](unsigned i) { return TruthTable::variable(i, 3); };
  auto v4 = [](unsigned i) { return TruthTable::variable(i, 4); };
  std::map<std::string, TruthTable> fs;
  fs["const0"] = TruthTable::constant(false, 3);
  fs["const1"] = TruthTable::constant(true, 3);
  fs["maj3"] = (v3(0) & v3(1)) | (v3(1) & v3(2)) | (v3(0) & v3(2));
  fs["xor3"] = v3(0) ^ v3(1) ^ v3(2);
  fs["mux21"] = (v3(2) & v3(0)) | (~v3(2) & v3(1));
  fs["parity4"] = v4(0) ^ v4(1) ^ v4(2) ^ v4(3);
  fs["not_aoi222"] = ~and_or(3, 2);
  fs["aoi333"] = ~and_or(3, 3);
  fs["ao4444"] = and_or(4, 4);
  fs["random6"] = lcg_function(6, 0x5EED6);
  fs["random7"] = lcg_function(7, 0x5EED7);
  TruthTable sparse(12);
  for (std::size_t m : {0x0FFu, 0xABCu, 0x123u}) sparse.set_bit(m, true);
  fs["sparse12"] = sparse;
  TruthTable at_least_two(7);
  for (std::size_t m = 0; m < 128; ++m)
    at_least_two.set_bit(m, std::popcount(m) >= 2);
  fs["atleast2of7"] = at_least_two;
  return fs;
}

// PLA rendering of a cube, variable 0 first: '1', '0' or '-'.
std::string pla(const Cube& c, unsigned nv) {
  std::string s;
  for (unsigned v = 0; v < nv; ++v)
    s += (c.pos_mask >> v & 1) ? '1' : (c.neg_mask >> v & 1) ? '0' : '-';
  return s;
}

// Cube lists, in order, of the full-width TruthTable recursion this
// word-parallel one replaced.  Patterns, and so compiled libraries,
// depend on the exact order.
TEST(Isop, ExactCubeListsOfFixedFunctions) {
  const std::map<std::string, std::vector<std::string>> expected = {
    {"const0",
     {}},
    {"const1",
     {"---"}},
    {"maj3",
     {"-11", "1-1", "11-"}},
    {"xor3",
     {"100", "010", "001", "111"}},
    {"mux21",
     {"-10", "1-1"}},
    {"parity4",
     {"1000", "0100", "0010", "1110", "0001", "1101", "1011", "0111"}},
    {"not_aoi222",
     {"-0-0-0", "0--0-0", "-00--0", "0-0--0", "-0-00-", "0--00-", "-00-0-",
      "0-0-0-"}},
    {"aoi333",
     {"--0--0--0", "-0---0--0", "0----0--0", "--0-0---0", "-0--0---0",
      "0---0---0", "--00----0", "-0-0----0", "0--0----0", "--0--0-0-",
      "-0---0-0-", "0----0-0-", "--0-0--0-", "-0--0--0-", "0---0--0-",
      "--00---0-", "-0-0---0-", "0--0---0-", "--0--00--", "-0---00--",
      "0----00--", "--0-0-0--", "-0--0-0--", "0---0-0--", "--00--0--",
      "-0-0--0--", "0--0--0--"}},
    {"ao4444",
     {"------------1111", "--------1111----", "----1111--------",
      "1111------------"}},
    {"random6",
     {"-1-000", "-00010", "01-110", "1-1-10", "1000-0", "0-11-0", "--1101",
      "0--101", "--1011", "11--11", "00-10-", "10-01-", "1110--", "0111--"}},
    {"random7",
     {"11--000", "01-1100", "10--100", "0-10-00", "100-010", "11-0110",
      "-0100-0", "0-1-0-0", "10111-0", "0110--0", "1-11011", "00-0111",
      "1000-11", "10000-1", "01010-1", "01001-1", "0-111-1", "11-11-1",
      "00-000-", "001-00-", "-00110-", "1-0110-", "10-110-", "01-101-",
      "010-01-", "1111-1-", "00100--"}},
    {"sparse12",
     {"111111110000", "110001001000", "001111010101"}},
    {"atleast2of7",
     {"-----11", "----1-1", "---1--1", "--1---1", "-1----1", "1-----1",
      "----11-", "---1-1-", "--1--1-", "-1---1-", "1----1-", "---11--",
      "--1-1--", "-1--1--", "1---1--", "--11---", "-1-1---", "1--1---",
      "-11----", "1-1----", "11-----"}},
  };
  std::map<std::string, TruthTable> fs = fixed_functions();
  ASSERT_EQ(fs.size(), expected.size());
  for (const auto& [name, f] : fs) {
    std::vector<std::string> got;
    for (const Cube& c : compute_isop(f)) got.push_back(pla(c, f.num_vars()));
    EXPECT_EQ(got, expected.at(name)) << name;
  }
}

}  // namespace
}  // namespace dagmap
