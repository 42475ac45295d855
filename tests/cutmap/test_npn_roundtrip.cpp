// NPN canonization round trips on random 4-variable functions and the
// 5/6-variable `canon_key` fallback semantics of the supergate and
// compiled-library class keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "boolmatch/npn.hpp"
#include "supergate/canon.hpp"

namespace dagmap {
namespace {

NpnTransform random_transform(std::mt19937_64& rng) {
  NpnTransform t;
  for (unsigned i = 3; i > 0; --i)
    std::swap(t.perm[i], t.perm[rng() % (i + 1)]);
  t.input_negate = static_cast<std::uint8_t>(rng() & 0xF);
  t.output_negate = (rng() & 1) != 0;
  return t;
}

TEST(NpnRoundTrip, ApplyInverseIsIdentity) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 500; ++i) {
    std::uint16_t tt = static_cast<std::uint16_t>(rng());
    NpnTransform t = random_transform(rng);
    EXPECT_EQ(npn_apply(npn_apply(tt, t), npn_inverse(t)), tt);
    EXPECT_EQ(npn_apply(npn_apply(tt, npn_inverse(t)), t), tt);
  }
}

TEST(NpnRoundTrip, ComposeMatchesSequentialApplication) {
  std::mt19937_64 rng(43);
  for (int i = 0; i < 500; ++i) {
    std::uint16_t tt = static_cast<std::uint16_t>(rng());
    NpnTransform a = random_transform(rng);
    NpnTransform b = random_transform(rng);
    EXPECT_EQ(npn_apply(tt, npn_compose(a, b)),
              npn_apply(npn_apply(tt, a), b));
  }
}

TEST(NpnRoundTrip, CanonicalIsClassInvariantAndReached) {
  std::mt19937_64 rng(44);
  for (int i = 0; i < 200; ++i) {
    std::uint16_t tt = static_cast<std::uint16_t>(rng());
    NpnTransform to_canon;
    std::uint16_t canon = npn_canonical(tt, &to_canon);
    // The recorded transform reaches the canonical representative.
    EXPECT_EQ(npn_apply(tt, to_canon), canon);
    // Every NPN-equivalent table canonicalizes to the same value, and
    // the canonical form is a fixpoint.
    NpnTransform t = random_transform(rng);
    EXPECT_EQ(npn_canonical(npn_apply(tt, t)), canon);
    EXPECT_EQ(npn_canonical(canon), canon);
  }
}

TEST(NpnRoundTrip, CanonKeyUpToFourVarsUsesNpnClasses) {
  std::mt19937_64 rng(46);
  for (int i = 0; i < 200; ++i) {
    std::uint16_t tt = static_cast<std::uint16_t>(rng());
    CanonKey k = canon_key(tt, 4);
    EXPECT_EQ(k.num_vars, 4u);
    EXPECT_EQ(k.tt, npn_canonical(tt));
    // NPN-equivalent functions share a key.
    CanonKey k2 = canon_key(npn_apply(tt, random_transform(rng)), 4);
    EXPECT_EQ(k, k2);
  }
  // Narrow functions are padded with replicated don't-cares, so a
  // 2-variable function keys identically however it is presented.
  EXPECT_EQ(canon_key(0x6, 2), canon_key(0x6666, 4));
}

TEST(NpnRoundTrip, CanonKeyFiveSixVarsIsExactTableFallback) {
  // 5- and 6-variable functions key by their exact table: stable and
  // sound for dedup (never merges distinct functions), but only
  // identical tables collide — permuted variants keep separate keys.
  std::mt19937_64 rng(47);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t tt5 = rng() & 0xFFFFFFFFull;
    CanonKey k5 = canon_key(tt5, 5);
    EXPECT_EQ(k5.num_vars, 5u);
    EXPECT_EQ(k5.tt, tt5);
    EXPECT_EQ(k5, canon_key(tt5, 5));  // round trip is stable

    std::uint64_t tt6 = rng();
    CanonKey k6 = canon_key(tt6, 6);
    EXPECT_EQ(k6.num_vars, 6u);
    EXPECT_EQ(k6.tt, tt6);
    // 5-var and 6-var keys never collide even on equal bits.
    EXPECT_FALSE(canon_key(tt5, 5) == canon_key(tt5, 6));
  }
}

}  // namespace
}  // namespace dagmap
