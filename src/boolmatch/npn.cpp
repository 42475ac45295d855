#include "boolmatch/npn.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

using Perms = std::array<std::array<std::uint8_t, 4>, 24>;

/// The 24 input permutations in lexicographic (std::next_permutation)
/// order: the order of the canonicalization scan.
constexpr Perms make_perms() {
  Perms out{};
  std::array<std::uint8_t, 4> p{0, 1, 2, 3};
  std::size_t i = 0;
  do {
    out[i++] = p;
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

constexpr Perms kPerms = make_perms();

/// Lexicographic rank of a permutation of 0..3 (its index in kPerms).
constexpr unsigned perm_rank(const std::array<std::uint8_t, 4>& p) {
  unsigned rank = 0;
  for (unsigned i = 0; i < 4; ++i) {
    unsigned smaller = 0;
    for (unsigned j = i + 1; j < 4; ++j) smaller += p[j] < p[i] ? 1u : 0u;
    rank = rank * (4 - i) + smaller;
  }
  return rank;
}

constexpr bool ranks_match_order() {
  for (unsigned k = 0; k < kPerms.size(); ++k)
    if (perm_rank(kPerms[k]) != k) return false;
  return true;
}
static_assert(ranks_match_order());

/// Per-permutation nibble tables: permuting a table over the variables
/// moves source bit j to bit dest(j) = sum_i bit_i(j) << perm[i], so the
/// permuted table is the OR of one lookup per source nibble.
using NibbleLut = std::array<std::array<std::array<std::uint16_t, 16>, 4>, 24>;

constexpr NibbleLut make_nibble_lut() {
  NibbleLut lut{};
  for (unsigned p = 0; p < 24; ++p)
    for (unsigned k = 0; k < 4; ++k)
      for (unsigned v = 0; v < 16; ++v) {
        std::uint16_t bits = 0;
        for (unsigned b = 0; b < 4; ++b) {
          if (!((v >> b) & 1u)) continue;
          unsigned j = 4 * k + b, dest = 0;
          for (unsigned i = 0; i < 4; ++i)
            dest |= ((j >> i) & 1u) << kPerms[p][i];
          bits |= static_cast<std::uint16_t>(1u << dest);
        }
        lut[p][k][v] = bits;
      }
  return lut;
}

constexpr NibbleLut kNibbleLut = make_nibble_lut();

/// g(x) = f(x with variable i negated): swap the variable's cofactors.
constexpr std::uint16_t negate_var(std::uint16_t f, unsigned i) {
  constexpr std::uint16_t kLow[4] = {0x5555, 0x3333, 0x0F0F, 0x00FF};
  unsigned s = 1u << i;
  return static_cast<std::uint16_t>(((f >> s) & kLow[i]) |
                                    ((f & kLow[i]) << s));
}

constexpr std::uint16_t permute(std::uint16_t h, unsigned perm_index) {
  const auto& lut = kNibbleLut[perm_index];
  return static_cast<std::uint16_t>(lut[0][h & 15u] | lut[1][(h >> 4) & 15u] |
                                    lut[2][(h >> 8) & 15u] | lut[3][h >> 12]);
}

// One table entry: valid bit, canonical table, and the transform
// reaching it packed as perm index, input negation and output negation.
constexpr std::uint32_t kValid = 1u << 31;
constexpr unsigned kPermShift = 16, kNegShift = 21, kOutShift = 25;

constexpr std::uint32_t pack_entry(std::uint16_t canon, unsigned perm_index,
                                   unsigned neg, unsigned out) {
  return kValid | canon | (perm_index << kPermShift) | (neg << kNegShift) |
         (out << kOutShift);
}

/// The 768-transform scan: permutations major, then input negations,
/// then output negation, keeping the first transform reaching the
/// minimum (strict `<`).
std::uint32_t scan(std::uint16_t tt) {
  std::array<std::uint16_t, 16> negated;
  negated[0] = tt;
  for (unsigned n = 1; n < 16; ++n) {
    unsigned low = n & (~n + 1);
    negated[n] = negate_var(negated[n ^ low],
                            static_cast<unsigned>(std::countr_zero(low)));
  }
  std::uint16_t best = tt;
  std::uint32_t entry = pack_entry(tt, 0, 0, 0);
  for (unsigned p = 0; p < 24; ++p)
    for (unsigned neg = 0; neg < 16; ++neg) {
      std::uint16_t v = permute(negated[neg], p);
      if (v < best) {
        best = v;
        entry = pack_entry(v, p, neg, 0);
      }
      v = static_cast<std::uint16_t>(~v);
      if (v < best) {
        best = v;
        entry = pack_entry(v, p, neg, 1);
      }
    }
  return entry;
}

/// The process-wide table, one entry per 4-variable truth table, filled
/// on first use.  An entry is a pure function of its index, so racing
/// fills store identical bits and relaxed ordering suffices.
std::atomic<std::uint32_t> g_table[std::size_t{1} << 16];

}  // namespace

std::uint16_t npn_apply(std::uint16_t tt, const NpnTransform& t) {
  std::uint16_t h = tt;
  for (unsigned i = 0; i < 4; ++i)
    if ((t.input_negate >> i) & 1u) h = negate_var(h, i);
  std::uint16_t out = permute(h, perm_rank(t.perm));
  return t.output_negate ? static_cast<std::uint16_t>(~out) : out;
}

std::uint16_t npn_canonical(std::uint16_t tt, NpnTransform* to_canonical,
                            bool* filled) {
  std::atomic<std::uint32_t>& slot = g_table[tt];
  std::uint32_t entry = slot.load(std::memory_order_relaxed);
  bool cold = (entry & kValid) == 0;
  if (cold) {
    entry = scan(tt);
    slot.store(entry, std::memory_order_relaxed);
  }
  if (filled) *filled = cold;
  if (to_canonical) {
    to_canonical->perm = kPerms[(entry >> kPermShift) & 31u];
    to_canonical->input_negate =
        static_cast<std::uint8_t>((entry >> kNegShift) & 15u);
    to_canonical->output_negate = ((entry >> kOutShift) & 1u) != 0;
  }
  return static_cast<std::uint16_t>(entry);
}

NpnTransform npn_inverse(const NpnTransform& t) {
  NpnTransform u;
  for (unsigned i = 0; i < 4; ++i) {
    u.perm[t.perm[i]] = static_cast<std::uint8_t>(i);
    if ((t.input_negate >> i) & 1u)
      u.input_negate |= static_cast<std::uint8_t>(1u << t.perm[i]);
  }
  u.output_negate = t.output_negate;
  return u;
}

NpnTransform npn_compose(const NpnTransform& a, const NpnTransform& b) {
  NpnTransform t;
  for (unsigned i = 0; i < 4; ++i) {
    t.perm[i] = b.perm[a.perm[i]];
    unsigned neg = ((a.input_negate >> i) & 1u) ^
                   ((b.input_negate >> a.perm[i]) & 1u);
    if (neg) t.input_negate |= static_cast<std::uint8_t>(1u << i);
  }
  t.output_negate = a.output_negate != b.output_negate;
  return t;
}

std::uint16_t pack_tt4(const TruthTable& f) {
  DAGMAP_ASSERT_MSG(f.num_vars() <= kNpnMaxVars, "function too wide for NPN");
  TruthTable wide = f.extended_to(kNpnMaxVars);
  std::uint16_t tt = 0;
  for (unsigned m = 0; m < 16; ++m)
    if (wide.bit(m)) tt |= static_cast<std::uint16_t>(1u << m);
  return tt;
}

}  // namespace dagmap
