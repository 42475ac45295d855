// NPN canonicalization of Boolean functions of up to 4 variables.
//
// Boolean matching asks whether a cut function equals some library gate
// function up to input Negation, input Permutation and output Negation.
// Canonicalizing both sides (minimum truth table over all 2^4 * 4! * 2
// transforms) reduces the question to a hash lookup, and the recorded
// transforms compose into the concrete pin assignment and the inverters
// the match needs.  Every caller shares one lazily filled table over all
// 2^16 functions, so canonicalizing a function costs one scan per
// process, then a load.
//
// This is the machinery behind the Boolean-matching mapper used as an
// ablation against the paper's structural matching (structural matching
// is decomposition-shape-sensitive; Boolean matching is not).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/truth_table.hpp"

namespace dagmap {

/// Maximum variable count supported by the NPN machinery.
inline constexpr unsigned kNpnMaxVars = 4;

/// One NPN transform over 4 variables: g(x) = out_negate ^
/// f(y0..y3) where y_i = x_{perm[i]} ^ ((input_negate >> i) & 1) —
/// i.e. old input i of `f` reads new variable perm[i], possibly negated.
struct NpnTransform {
  std::array<std::uint8_t, kNpnMaxVars> perm{0, 1, 2, 3};
  std::uint8_t input_negate = 0;
  bool output_negate = false;
};

/// Applies `t` to a truth table over exactly 4 variables (narrower
/// functions must be padded with `extended_to(4)` first).  `t.perm`
/// must be a permutation of 0..3.
std::uint16_t npn_apply(std::uint16_t tt, const NpnTransform& t);

/// Canonical representative (minimum npn_apply over all transforms) and,
/// optionally, the first transform achieving it in the scan order
/// (permutations lexicographically, then input negations 0..15, then
/// output negation): npn_apply(tt, *to_canonical) == canonical.
///
/// An O(1) lookup in one process-wide 2^16-entry table that is filled
/// on first use of each entry; safe to call from any number of threads.
/// `*filled`, when given, says whether this call had to run the scan.
std::uint16_t npn_canonical(std::uint16_t tt,
                            NpnTransform* to_canonical = nullptr,
                            bool* filled = nullptr);

/// Inverse transform: npn_apply(npn_apply(tt, t), npn_inverse(t)) == tt.
NpnTransform npn_inverse(const NpnTransform& t);

/// Composition: npn_apply(tt, npn_compose(a, b)) ==
/// npn_apply(npn_apply(tt, a), b).
NpnTransform npn_compose(const NpnTransform& a, const NpnTransform& b);

/// Truth table of <=4 variables packed into 16 bits (variables beyond
/// `num_vars` are don't-cares, replicated).
std::uint16_t pack_tt4(const TruthTable& f);

}  // namespace dagmap
