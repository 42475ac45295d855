// Canonical function keys for supergate deduplication.
//
// The NPN machinery in boolmatch/npn.hpp covers functions of up to 4
// variables — enough for every base-library gate class the paper's
// libraries use, and for the bulk of generated supergates.  Supergates
// of 5 or 6 leaves fall back to the exact truth table as their own
// class key.  The fallback is sound for dedup: it can only create MORE
// classes than true NPN canonicalization would (NPN-equivalent but
// bitwise-different 5/6-var functions each keep a representative), so
// no function is ever merged into the wrong class and the augmented
// library stays a superset of what full canonicalization would keep.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dagmap {

/// Equivalence-class key: NPN-canonical 16-bit table for <=4 variables,
/// exact 64-bit table for 5 and 6.  Keys of different variable counts
/// never compare equal (a 4-var function padded with don't-cares is
/// canonicalized as 4-var, so the <=4 side is uniform).
struct CanonKey {
  std::uint64_t tt = 0;
  unsigned num_vars = 0;  ///< 4 for the NPN-canonical side, 5 or 6 raw

  friend bool operator==(const CanonKey& a, const CanonKey& b) {
    return a.tt == b.tt && a.num_vars == b.num_vars;
  }
};

/// Builds the class key for a function given as the low 2^num_vars bits
/// of `tt`.  `num_vars` must be <= kSupergateMaxVars (6).  The <= 4
/// side is a lookup in npn_canonical's process-wide table.
CanonKey canon_key(std::uint64_t tt, unsigned num_vars);

struct CanonKeyHash {
  std::size_t operator()(const CanonKey& k) const {
    std::uint64_t h = k.tt * 0x9e3779b97f4a7c15ULL + k.num_vars;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace dagmap
