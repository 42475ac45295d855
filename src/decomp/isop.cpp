#include "decomp/isop.hpp"

#include <algorithm>
#include <bit>

#include "netlist/assert.hpp"

namespace dagmap {

unsigned Cube::num_literals() const {
  return static_cast<unsigned>(std::popcount(pos_mask) +
                               std::popcount(neg_mask));
}

namespace {

using Word = std::uint64_t;

// Tables are raw word arrays in TruthTable::words() layout: words(n)
// words for `n` variables, bits past 2^n zero below six variables.
std::size_t words(unsigned n) { return n <= 6 ? 1 : std::size_t{1} << (n - 6); }
Word low_bits(unsigned n) {  // the low 2^n bits of a word
  return n >= 6 ? ~Word{0} : (Word{1} << (std::size_t{1} << n)) - 1;
}

// Minato–Morreale over the interval [L, U] of functions of `n`
// variables: appends an irredundant cover C, L <= C <= U, to `cubes` and
// writes C's table to `g`.  After a split on the top variable `var` that
// either bound depends on, every sub-problem is a function of variables
// 0..var-1, so each cofactor shrinks to those 2^var minterms: a block of
// words for var >= 6, a shift and mask below.  All intermediate tables
// are carved from the bump region [scratch, end).  The split variable
// and the c0, c1, c_rest order are those of the textbook recursion over
// full-width truth tables, so the cube list is the same, cube for cube.
void isop_rec(const Word* lower, const Word* upper, unsigned n, Word* g,
              Word* scratch, const Word* end, std::vector<Cube>& cubes) {
  const std::size_t nw = words(n);
  const Word mask = low_bits(n);
  if (std::all_of(lower, lower + nw, [](Word w) { return w == 0; })) {
    std::fill(g, g + nw, Word{0});
    return;
  }
  if (std::all_of(upper, upper + nw, [mask](Word w) { return w == mask; })) {
    std::fill(g, g + nw, mask);
    cubes.push_back(Cube{});
    return;
  }
  // L <= U and neither is constant, so a splitting variable exists.
  unsigned var = n;
  do {
    DAGMAP_ASSERT_MSG(var > 0, "isop: no splitting variable");
    --var;
  } while (!TruthTable::words_depend_on({lower, nw}, var) &&
           !TruthTable::words_depend_on({upper, nw}, var));

  const std::size_t sw = words(var);
  const Word *l0 = lower, *l1 = lower + sw, *u0 = upper, *u1 = upper + sw;
  Word* next = scratch;
  if (var < 6) {
    const unsigned shift = 1u << var;
    const Word sub = low_bits(var);
    next[0] = lower[0] & sub, next[1] = (lower[0] >> shift) & sub;
    next[2] = upper[0] & sub, next[3] = (upper[0] >> shift) & sub;
    l0 = next, l1 = next + 1, u0 = next + 2, u1 = next + 3;
    next += 4;
  }
  Word *sub_lower = next, *sub_upper = next + sw;
  Word *g0 = next + 2 * sw, *g1 = next + 3 * sw, *g_rest = next + 4 * sw;
  next += 5 * sw;
  DAGMAP_ASSERT_MSG(next <= end, "isop: scratch exhausted");

  const auto vbit = static_cast<std::uint16_t>(1u << var);
  std::size_t first = cubes.size();
  for (std::size_t i = 0; i < sw; ++i) sub_lower[i] = l0[i] & ~u1[i];
  isop_rec(sub_lower, u0, var, g0, next, end, cubes);
  for (std::size_t i = first; i < cubes.size(); ++i)
    cubes[i].neg_mask |= vbit;

  first = cubes.size();
  for (std::size_t i = 0; i < sw; ++i) sub_lower[i] = l1[i] & ~u0[i];
  isop_rec(sub_lower, u1, var, g1, next, end, cubes);
  for (std::size_t i = first; i < cubes.size(); ++i)
    cubes[i].pos_mask |= vbit;

  for (std::size_t i = 0; i < sw; ++i) {
    sub_lower[i] = (l0[i] & ~g0[i]) | (l1[i] & ~g1[i]);
    sub_upper[i] = u0[i] & u1[i];
  }
  isop_rec(sub_lower, sub_upper, var, g_rest, next, end, cubes);

  // g = !x_var*g0 + x_var*g1 + g_rest over variables 0..var, replicated
  // up to n variables (the cover ignores the ones above var).
  if (var < 6) {
    Word w = (g0[0] | g_rest[0]) | ((g1[0] | g_rest[0]) << (1u << var));
    for (unsigned k = var + 1; k < std::min(n, 6u); ++k) w |= w << (1u << k);
    std::fill(g, g + nw, w);
    return;
  }
  for (std::size_t i = 0; i < sw; ++i) {
    g[i] = g0[i] | g_rest[i];
    g[sw + i] = g1[i] | g_rest[i];
  }
  for (std::size_t done = 2 * sw; done < nw; done *= 2)
    std::copy(g, g + done, g + done);
}

}  // namespace

std::vector<Cube> compute_isop(const TruthTable& f) {
  const unsigned n = f.num_vars();
  const std::size_t nw = words(n);
  // One scratch region per call: the cover table, then per recursion
  // level five sub-tables of at most half the parent's width plus four
  // single-word cofactors — under 6 * nw + 9 * (n + 1) words in all.
  std::vector<Word> scratch(6 * nw + 9 * (n + 1));
  std::span<const Word> fw = f.words();
  std::vector<Cube> cover;
  isop_rec(fw.data(), fw.data(), n, scratch.data(), scratch.data() + nw,
           scratch.data() + scratch.size(), cover);
  DAGMAP_ASSERT_MSG(std::equal(fw.begin(), fw.end(), scratch.begin()),
                    "isop cover does not equal function");
  return cover;
}

TruthTable cover_to_truth_table(const std::vector<Cube>& cover,
                                unsigned num_vars) {
  TruthTable t = TruthTable::constant(false, num_vars);
  for (const Cube& c : cover) {
    TruthTable cube_tt = TruthTable::constant(true, num_vars);
    for (unsigned v = 0; v < num_vars; ++v) {
      if (c.pos_mask & (1u << v)) cube_tt = cube_tt & TruthTable::variable(v, num_vars);
      if (c.neg_mask & (1u << v)) cube_tt = cube_tt & ~TruthTable::variable(v, num_vars);
    }
    t = t | cube_tt;
  }
  return t;
}

Expr cover_to_expr(const std::vector<Cube>& cover,
                   const std::vector<std::string>& vars) {
  if (cover.empty()) return Expr::make_const(false);
  std::vector<Expr> terms;
  for (const Cube& c : cover) {
    std::vector<Expr> lits;
    for (unsigned v = 0; v < vars.size(); ++v) {
      if (c.pos_mask & (1u << v)) lits.push_back(Expr::make_var(vars[v]));
      if (c.neg_mask & (1u << v))
        lits.push_back(Expr::make_not(Expr::make_var(vars[v])));
    }
    if (lits.empty())
      terms.push_back(Expr::make_const(true));
    else
      terms.push_back(Expr::make_and(std::move(lits)));
  }
  return Expr::make_or(std::move(terms));
}

Expr truth_table_to_expr(const TruthTable& f,
                         const std::vector<std::string>& vars) {
  DAGMAP_ASSERT(vars.size() >= f.num_vars());
  return cover_to_expr(compute_isop(f), vars);
}

Expr truth_table_to_expr_best_phase(const TruthTable& f,
                                    const std::vector<std::string>& vars) {
  DAGMAP_ASSERT(vars.size() >= f.num_vars());
  std::vector<Cube> pos = compute_isop(f);
  std::vector<Cube> neg = compute_isop(~f);
  auto cost = [](const std::vector<Cube>& cover) {
    std::size_t lits = 0;
    for (const Cube& c : cover) lits += c.num_literals();
    return std::pair<std::size_t, std::size_t>{lits, cover.size()};
  };
  if (cost(neg) < cost(pos))
    return Expr::make_not(cover_to_expr(neg, vars));
  return cover_to_expr(pos, vars);
}

}  // namespace dagmap
