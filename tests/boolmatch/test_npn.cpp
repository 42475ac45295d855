// Tests for NPN canonicalization.
#include "boolmatch/npn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <thread>
#include <vector>

namespace dagmap {
namespace {

// The scalar bit-by-bit transform and the plain 768-transform scan that
// the table replaced, kept as the oracle for the table's contents.
namespace reference {

std::uint16_t npn_apply(std::uint16_t tt, const NpnTransform& t) {
  std::uint16_t out = 0;
  for (unsigned m = 0; m < 16; ++m) {
    unsigned f_index = 0;
    for (unsigned i = 0; i < 4; ++i) {
      unsigned bit = ((m >> t.perm[i]) & 1u) ^ ((t.input_negate >> i) & 1u);
      f_index |= bit << i;
    }
    unsigned value = ((tt >> f_index) & 1u) ^ (t.output_negate ? 1u : 0u);
    out |= static_cast<std::uint16_t>(value << m);
  }
  return out;
}

/// Every transform in the canonicalization scan order.
std::vector<NpnTransform> all_transforms() {
  std::vector<NpnTransform> out;
  std::array<std::uint8_t, 4> perm{0, 1, 2, 3};
  do {
    for (unsigned neg = 0; neg < 16; ++neg)
      for (unsigned o = 0; o < 2; ++o) {
        NpnTransform t;
        t.perm = perm;
        t.input_negate = static_cast<std::uint8_t>(neg);
        t.output_negate = o != 0;
        out.push_back(t);
      }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

/// The scan over `transforms`, where apply(tt, i) applies transforms[i].
template <class Apply>
std::uint16_t scan(std::uint16_t tt, NpnTransform* to_canonical,
                   const std::vector<NpnTransform>& transforms, Apply apply) {
  std::uint16_t best = 0xFFFF;
  NpnTransform best_t;
  bool first = true;
  for (std::size_t i = 0; i < transforms.size(); ++i) {
    std::uint16_t v = apply(tt, i);
    if (first || v < best) {
      best = v;
      best_t = transforms[i];
      first = false;
    }
  }
  if (to_canonical) *to_canonical = best_t;
  return best;
}

std::uint16_t npn_canonical(std::uint16_t tt, NpnTransform* to_canonical) {
  static const std::vector<NpnTransform> transforms = all_transforms();
  return scan(tt, to_canonical, transforms,
              [](std::uint16_t f, std::size_t i) {
                return reference::npn_apply(f, transforms[i]);
              });
}

/// The reference npn_apply tabulated per transform: it sends each input
/// bit to one output bit, so a table's image is the OR of its four
/// nibbles' images, each computed by npn_apply above, then complemented
/// for an output negation.  Same values, fast enough for every table.
class NibbleImages {
 public:
  explicit NibbleImages(const std::vector<NpnTransform>& transforms)
      : images_(transforms.size()), negate_(transforms.size()) {
    for (std::size_t i = 0; i < transforms.size(); ++i) {
      NpnTransform t = transforms[i];
      negate_[i] = t.output_negate;
      t.output_negate = false;
      for (unsigned k = 0; k < 4; ++k)
        for (unsigned v = 0; v < 16; ++v) {
          auto nibble = static_cast<std::uint16_t>(v << (4 * k));
          images_[i][k][v] = reference::npn_apply(nibble, t);
        }
    }
  }

  std::uint16_t apply(std::uint16_t tt, std::size_t i) const {
    const auto& im = images_[i];
    auto out = static_cast<std::uint16_t>(im[0][tt & 15u] |
                                          im[1][(tt >> 4) & 15u] |
                                          im[2][(tt >> 8) & 15u] |
                                          im[3][tt >> 12]);
    return negate_[i] ? static_cast<std::uint16_t>(~out) : out;
  }

 private:
  std::vector<std::array<std::array<std::uint16_t, 16>, 4>> images_;
  std::vector<bool> negate_;
};

}  // namespace reference

bool same_transform(const NpnTransform& a, const NpnTransform& b) {
  return a.perm == b.perm && a.input_negate == b.input_negate &&
         a.output_negate == b.output_negate;
}

std::uint16_t tt_of(const char* expr_vars2) {
  // Tiny helper for 2-var functions padded to 4 vars.
  TruthTable a = TruthTable::variable(0, 2), b = TruthTable::variable(1, 2);
  std::string s = expr_vars2;
  TruthTable f = s == "and"    ? a & b
                 : s == "or"   ? a | b
                 : s == "xor"  ? a ^ b
                 : s == "nand" ? ~(a & b)
                 : s == "nor"  ? ~(a | b)
                               : ~(a ^ b);
  return pack_tt4(f);
}

TEST(Npn, IdentityTransformIsNoop) {
  NpnTransform id;
  for (std::uint16_t tt : {0x8888, 0x6666, 0x1234, 0xFFFE})
    EXPECT_EQ(npn_apply(tt, id), tt);
}

TEST(Npn, ApplyComposeConsistency) {
  std::uint64_t s = 12345;
  for (int trial = 0; trial < 50; ++trial) {
    auto rnd = [&] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return s;
    };
    NpnTransform a, b;
    std::array<std::uint8_t, 4> pa{0, 1, 2, 3}, pb{0, 1, 2, 3};
    for (int i = 3; i > 0; --i) {
      std::swap(pa[i], pa[rnd() % (i + 1)]);
      std::swap(pb[i], pb[rnd() % (i + 1)]);
    }
    a.perm = pa;
    b.perm = pb;
    a.input_negate = rnd() & 15;
    b.input_negate = rnd() & 15;
    a.output_negate = rnd() & 1;
    b.output_negate = rnd() & 1;
    std::uint16_t tt = static_cast<std::uint16_t>(rnd());
    EXPECT_EQ(npn_apply(npn_apply(tt, a), b), npn_apply(tt, npn_compose(a, b)));
    EXPECT_EQ(npn_apply(npn_apply(tt, a), npn_inverse(a)), tt);
  }
}

TEST(Npn, CanonicalIsInvariantUnderTransforms) {
  std::uint16_t xor_tt = tt_of("xor");
  NpnTransform t;
  t.perm = {1, 0, 2, 3};
  t.input_negate = 0b0001;
  t.output_negate = true;
  std::uint16_t moved = npn_apply(xor_tt, t);
  EXPECT_EQ(npn_canonical(xor_tt), npn_canonical(moved));
}

TEST(Npn, NandAndNorShareAClassButNotXor) {
  // AND/OR/NAND/NOR are one NPN class; XOR/XNOR another.
  std::uint16_t c_and = npn_canonical(tt_of("and"));
  EXPECT_EQ(c_and, npn_canonical(tt_of("or")));
  EXPECT_EQ(c_and, npn_canonical(tt_of("nand")));
  EXPECT_EQ(c_and, npn_canonical(tt_of("nor")));
  std::uint16_t c_xor = npn_canonical(tt_of("xor"));
  EXPECT_EQ(c_xor, npn_canonical(tt_of("xnor")));
  EXPECT_NE(c_and, c_xor);
}

TEST(Npn, ReportedTransformAchievesCanonical) {
  std::uint64_t s = 777;
  for (int trial = 0; trial < 100; ++trial) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    std::uint16_t tt = static_cast<std::uint16_t>(s >> 17);
    NpnTransform t;
    std::uint16_t canon = npn_canonical(tt, &t);
    EXPECT_EQ(npn_apply(tt, t), canon);
  }
}

TEST(Npn, ClassCountIsPlausible) {
  // All 2^16 functions of 4 vars fall into exactly 222 NPN classes.
  std::set<std::uint16_t> classes;
  for (unsigned tt = 0; tt < 65536; tt += 7)  // sample densely
    classes.insert(npn_canonical(static_cast<std::uint16_t>(tt)));
  EXPECT_LE(classes.size(), 222u);
  EXPECT_GE(classes.size(), 150u);  // dense sample hits most classes
}

TEST(Npn, PackHandlesNarrowFunctions) {
  TruthTable inv = ~TruthTable::variable(0, 1);
  std::uint16_t tt = pack_tt4(inv);
  // Padded inverter: bit m = !(m & 1).
  for (unsigned m = 0; m < 16; ++m)
    EXPECT_EQ((tt >> m) & 1u, (m & 1u) ? 0u : 1u);
}

// Four threads fill overlapping table ranges from cold (ctest runs each
// case in its own process); racing fills of one entry store the same
// bits, so every thread's result equals the reference.
TEST(NpnTable, ConcurrentFillIsDeterministic) {
  constexpr unsigned kThreads = 4, kSpan = 2048, kStep = 1024;
  constexpr unsigned kBase = 0x9000;
  struct Seen {
    std::uint16_t canon;
    NpnTransform t;
  };
  std::vector<std::vector<Seen>> seen(kThreads, std::vector<Seen>(kSpan));
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kThreads; ++k)
    threads.emplace_back([&seen, k] {
      for (unsigned i = 0; i < kSpan; ++i) {
        Seen& out = seen[k][i];
        out.canon = npn_canonical(
            static_cast<std::uint16_t>(kBase + k * kStep + i), &out.t);
      }
    });
  for (std::thread& t : threads) t.join();
  for (unsigned k = 0; k < kThreads; ++k)
    for (unsigned i = 0; i < kSpan; ++i) {
      auto tt = static_cast<std::uint16_t>(kBase + k * kStep + i);
      NpnTransform want;
      ASSERT_EQ(seen[k][i].canon, reference::npn_canonical(tt, &want)) << tt;
      ASSERT_TRUE(same_transform(seen[k][i].t, want)) << tt;
    }
}

// The table is exact: the same scan order and the same strict `<` give
// the reference scan's canonical form and first transform on every
// table, and the word-level npn_apply equals the scalar one under all
// 768 transforms on a fixed sample of tables: every single-nibble table
// (each nibble lookup of every permutation) and 64 random ones.
TEST(NpnTable, MatchesReferenceScanOnEveryTable) {
  const std::vector<NpnTransform> transforms = reference::all_transforms();
  const reference::NibbleImages images(transforms);
  for (unsigned i = 0; i < 65536; ++i) {
    auto tt = static_cast<std::uint16_t>(i);
    NpnTransform want, got;
    std::uint16_t canon = reference::scan(
        tt, &want, transforms,
        [&](std::uint16_t f, std::size_t t) { return images.apply(f, t); });
    ASSERT_EQ(npn_canonical(tt, &got), canon) << tt;
    ASSERT_TRUE(same_transform(got, want)) << tt;
  }

  std::vector<std::uint16_t> sample{0xFFFF};
  for (unsigned k = 0; k < 4; ++k)
    for (unsigned v = 0; v < 16; ++v)
      sample.push_back(static_cast<std::uint16_t>(v << (4 * k)));
  std::uint64_t s = 2024;
  for (int i = 0; i < 64; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    sample.push_back(static_cast<std::uint16_t>(s >> 31));
  }
  for (std::uint16_t tt : sample) {
    for (const NpnTransform& t : transforms)
      ASSERT_EQ(npn_apply(tt, t), reference::npn_apply(tt, t)) << tt;
    NpnTransform want, got;
    ASSERT_EQ(npn_canonical(tt, &got), reference::npn_canonical(tt, &want));
    ASSERT_TRUE(same_transform(got, want)) << tt;
  }
}

}  // namespace
}  // namespace dagmap
