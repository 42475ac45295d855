// Fuzz coverage for pre-match pruning (the shape automaton): it is a
// pure *screen* — it may only reject (root, pattern) pairs that cannot match.
// For 200 seeded (circuit, library) pairs we enumerate every match at
// every internal node with screening enabled and disabled and require
// identical match sets, for both match classes.  (CTest label `fuzz`.)
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

namespace dagmap {
namespace {

std::set<std::string> match_keys(const Matcher& matcher, NodeId root,
                                 MatchClass mc) {
  std::set<std::string> keys;
  matcher.for_each_match(root, mc, [&](const MatchView& m) {
    std::string k = m.gate->name;
    for (NodeId leaf : m.pin_binding) k += "|" + std::to_string(leaf);
    keys.insert(k);
  });
  return keys;
}

TEST(SignatureFuzz, IndexNeverChangesTheMatchSet) {
  for (std::uint64_t pair = 0; pair < 200; ++pair) {
    unsigned num_inputs = 4 + static_cast<unsigned>(pair % 4);
    unsigned num_nodes = 12 + static_cast<unsigned>(pair % 20);
    Network sg = tech_decompose(
        make_random_dag(num_inputs, num_nodes, 2, pair * 131 + 7));
    // Mix of random technologies and the richer built-in one.
    GateLibrary lib = pair % 5 == 4
                          ? make_lib2_library()
                          : make_random_library(pair * 17 + 3,
                                                5 + pair % 7, 4);

    Matcher indexed(lib, sg, {.use_signature_index = true});
    Matcher unscreened(lib, sg, {.use_signature_index = false});
    for (NodeId n = 0; n < sg.size(); ++n) {
      if (sg.is_source(n)) continue;
      for (MatchClass mc : {MatchClass::Standard, MatchClass::Extended}) {
        auto with = match_keys(indexed, n, mc);
        auto without = match_keys(unscreened, n, mc);
        ASSERT_EQ(with, without) << "pair " << pair << " node " << n
                                 << " class " << to_string(mc);
      }
    }
    // The screen must have actually pruned something somewhere to be
    // worth its name (sanity on the statistic, not a correctness claim).
    EXPECT_EQ(unscreened.pruned(), 0u);
  }
}

}  // namespace
}  // namespace dagmap
