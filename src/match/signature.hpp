// Pattern signatures: a structural summary of one pattern graph.
//
// The matcher no longer consults them: the shape automaton
// (match/pattern_index.hpp, DESIGN.md §7) prunes every (root, pattern)
// pair a signature could, and more.  `PatternSignature` survives only
// because the compiled-library artifact (libcache/compiled_library.*)
// serializes one per pattern-index entry; it goes at the next artifact
// format bump.
//
//   * depth  — internal nodes on the longest root-to-leaf path;
//   * counts — exact per-kind node counts, and within distance 1..3 of
//              the root (`near`);
//   * paths  — bitset of the kind-sequences (Inv/Nand2) of all downward
//              internal paths of length <= kSignaturePathDepth from the
//              root.
#pragma once

#include <cstdint>

#include "library/pattern.hpp"

namespace dagmap {

/// Longest kind-sequence tracked by the `paths` bitset.  Sequences of
/// length 1..kSignaturePathDepth are heap-indexed into a 64-bit word:
/// a sequence of kinds k0..k_{l-1} (k = 0 for Inv, 1 for Nand2, k0 the
/// node itself) occupies bit (1 << l) + (k0*2^{l-1} + ... + k_{l-1}).
inline constexpr unsigned kSignaturePathDepth = 5;

/// Distance horizon of the near-root per-kind counts.
inline constexpr unsigned kSignatureNearDepth = 3;

/// Signature of one pattern graph (exact counts, required paths).
struct PatternSignature {
  std::uint16_t depth = 0;       ///< internal nodes on the longest root-leaf path
  std::uint16_t total = 0;       ///< all pattern nodes, leaves included
  std::uint16_t inv_count = 0;   ///< internal Inv nodes
  std::uint16_t nand_count = 0;  ///< internal Nand2 nodes
  std::uint8_t near[2][kSignatureNearDepth] = {};  ///< exact cumulative counts
  std::uint64_t paths = 0;  ///< kind-sequences required at the match root
};

/// Signature of a pattern graph (root must be internal).
PatternSignature compute_pattern_signature(const PatternGraph& pg);

}  // namespace dagmap
