// Pattern signatures (kept for the compiled-library artifact) and the
// end-to-end pruning contract: with and without pre-match pruning (the
// shape automaton, tests/match/test_shape_automaton.cpp) the matchers
// enumerate identical match sets.
#include "match/signature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

namespace dagmap {
namespace {

// Canonical form of a match for set comparison: gate name + leaf binding
// + sorted covered nodes.  Covered nodes discriminate which *pattern*
// produced a deduplicated match, so an unsoundly pruned pattern cannot
// hide behind an equal-binding match of a sibling pattern.
using MatchKey = std::tuple<std::string, std::vector<NodeId>, std::vector<NodeId>>;

std::set<MatchKey> match_set(const Matcher& m, NodeId root, MatchClass mc) {
  std::set<MatchKey> out;
  m.for_each_match(root, mc, [&](const MatchView& v) {
    std::vector<NodeId> covered(v.covered.begin(), v.covered.end());
    std::sort(covered.begin(), covered.end());
    out.insert({v.gate->name,
                {v.pin_binding.begin(), v.pin_binding.end()},
                std::move(covered)});
  });
  return out;
}

TEST(Signature, Nand2PatternSignature) {
  GateLibrary lib = make_minimal_library();
  const Gate* nand2 = lib.nand2();
  ASSERT_NE(nand2, nullptr);
  ASSERT_EQ(nand2->patterns.size(), 1u);
  PatternSignature s = compute_pattern_signature(nand2->patterns[0]);
  EXPECT_EQ(s.depth, 1);
  EXPECT_EQ(s.total, 3);  // NAND + 2 leaves
  EXPECT_EQ(s.inv_count, 0);
  EXPECT_EQ(s.nand_count, 1);
  // Exactly one required path: the length-1 sequence "Nand2" (bit 3).
  EXPECT_EQ(s.paths, 1ull << 3);
}

TEST(Signature, IndexedMatcherEnumeratesIdenticalSets) {
  // End-to-end: with and without pruning, the match sets agree at every
  // root, for every match class, on lib2 and on a rich 44-family library.
  Network subject = tech_decompose(make_array_multiplier(4));
  for (int lib_id = 0; lib_id < 2; ++lib_id) {
    GateLibrary lib = lib_id == 0 ? make_lib2_library() : make_44_library(2);
    Matcher with(lib, subject, {.use_signature_index = true});
    Matcher without(lib, subject, {.use_signature_index = false});
    for (MatchClass mc :
         {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
      for (NodeId n = 0; n < subject.size(); ++n) {
        if (subject.is_source(n)) continue;
        EXPECT_EQ(match_set(with, n, mc), match_set(without, n, mc))
            << "node " << n << " class " << to_string(mc) << " lib "
            << lib.name();
      }
    }
    // Pruning must actually fire on the rich library.
    if (lib_id == 1) {
      EXPECT_GT(with.pruned(), 0u);
    }
    EXPECT_EQ(without.pruned(), 0u);
  }
}

}  // namespace
}  // namespace dagmap
