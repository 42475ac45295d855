// Independent optimality evidence for the DAG mapper: the paper claims
// the labeling computes the *minimum* achievable arrival over all covers
// (for the given subject graph and match class).  We sample many random
// covers — a random match choice at every node — build each cover, run
// real timing on it, and check none beats the mapper's optimum.
#include <gtest/gtest.h>

#include "core/dag_mapper.hpp"
#include "core/stats.hpp"
#include "treemap/tree_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/cover.hpp"
#include "match/matcher.hpp"
#include "sim/simulator.hpp"
#include "timing/timing.hpp"

namespace dagmap {
namespace {

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2685821657736338717ull + 99) {}
  std::uint32_t below(std::uint32_t n) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<std::uint32_t>(s % n);
  }
};

class Optimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Optimality, NoRandomCoverBeatsTheOptimum) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_random_dag(8, 60, 6, GetParam()));
  Matcher matcher(lib, sg);

  MapResult opt = dag_map(sg, lib);

  // Pre-collect the match lists once.
  std::vector<std::vector<Match>> all(sg.size());
  for (NodeId n = 0; n < sg.size(); ++n)
    if (!sg.is_source(n)) all[n] = matcher.matches_at(n, MatchClass::Standard);

  Rng rng(GetParam() * 7919 + 3);
  for (int trial = 0; trial < 40; ++trial) {
    CoverSelection chosen(sg.size());
    for (NodeId n = 0; n < sg.size(); ++n) {
      if (sg.is_source(n)) continue;
      ASSERT_FALSE(all[n].empty());
      chosen.set(n,
                 all[n][rng.below(static_cast<std::uint32_t>(all[n].size()))]);
    }
    MappedNetlist cover = build_cover(sg, chosen);
    double delay = circuit_delay(cover);
    EXPECT_GE(delay + 1e-9, opt.optimal_delay) << "trial " << trial;
    // Sampled covers are still functionally correct.
    if (trial < 3) {
      EXPECT_TRUE(check_equivalence(sg, cover.to_network()).equivalent);
    }
  }
}

TEST_P(Optimality, GreedyFastestLocalChoiceIsTheLabel) {
  // The DP's label at each node equals the arrival of the cover that
  // greedily picks the per-node fastest match — a direct restatement of
  // the principle of optimality under load independence.
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_random_dag(8, 50, 5, GetParam() + 100));
  MapResult opt = dag_map(sg, lib);
  double mapped = circuit_delay(opt.netlist);
  EXPECT_NEAR(mapped, opt.optimal_delay, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Optimality,
                         ::testing::Values(2u, 4u, 9u, 16u, 25u));

TEST(Stats, DuplicationCountsMatchFigure2) {
  // The Figure 2 scenario: DAG covering covers `mid` twice.
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1.0 0 1.0 0\n"
      "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1.2 0 1.2 0\n"
      "GATE big3 3 O=a*b+!c;\n PIN * UNKNOWN 1 999 1.0 0 1.0 0\n");
  Network sg("fig2");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId c = sg.add_input("c");
  NodeId d = sg.add_input("d");
  NodeId mid = sg.add_nand2(a, b);
  sg.add_output(sg.add_nand2(mid, c), "o1");
  sg.add_output(sg.add_nand2(mid, d), "o2");
  MapResult dag = dag_map(sg, lib);
  EXPECT_EQ(dag.duplicated_nodes, 1u);   // mid, covered by both big3s
  EXPECT_EQ(dag.covered_distinct, 3u);   // mid, o1, o2
  EXPECT_EQ(dag.covered_instances, 4u);  // mid twice
  MapResult tree = tree_map(sg, lib);
  EXPECT_EQ(tree.duplicated_nodes, 0u);

  // mapping_stats sees the created multi-fanout points at a and b.
  MappingStats s = mapping_stats(sg, dag.netlist);
  EXPECT_EQ(s.subject_multi_fanout, 1u);  // mid
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.fanin_histogram[3], 2u);    // two big3 instances
  EXPECT_NEAR(s.average_gate_inputs(), 3.0, 1e-9);
}

TEST(Optimality, ExhaustiveTinyGraph) {
  // Fully enumerate all covers of a 4-internal-node subject graph and
  // confirm the mapper's optimum is the true minimum.
  GateLibrary lib = make_lib2_library();
  Network sg("tiny");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId c = sg.add_input("c");
  NodeId g1 = sg.add_nand2(a, b);
  NodeId g2 = sg.add_inv(g1);
  NodeId g3 = sg.add_nand2(g2, c);
  NodeId g4 = sg.add_inv(g3);
  sg.add_output(g4, "o");

  Matcher matcher(lib, sg);
  std::vector<std::vector<Match>> all(sg.size());
  std::vector<NodeId> internal;
  for (NodeId n = 0; n < sg.size(); ++n)
    if (!sg.is_source(n)) {
      all[n] = matcher.matches_at(n, MatchClass::Standard);
      internal.push_back(n);
    }

  double best = 1e300;
  CoverSelection chosen(sg.size());
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == internal.size()) {
      MappedNetlist cover = build_cover(sg, chosen);
      best = std::min(best, circuit_delay(cover));
      return;
    }
    for (const Match& m : all[internal[i]]) {
      chosen.set(internal[i], m);
      rec(i + 1);
    }
  };
  rec(0);

  MapResult opt = dag_map(sg, lib);
  EXPECT_NEAR(opt.optimal_delay, best, 1e-9);
}

}  // namespace
}  // namespace dagmap
