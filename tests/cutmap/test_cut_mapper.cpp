// The priority-cut Boolean mapping engine: correctness (simulation
// equivalence, delay consistency), the delay-dominance guarantee against
// the structural backend, area-recovery rounds, and the shared-NPN-index
// invariance.
#include "cutmap/cut_mapper.hpp"

#include <gtest/gtest.h>

#include "boolmatch/npn_index.hpp"
#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "sim/simulator.hpp"
#include "timing/timing.hpp"

namespace dagmap {
namespace {

void expect_same_result(const MapResult& a, const MapResult& b) {
  ASSERT_EQ(a.label.size(), b.label.size());
  for (std::size_t i = 0; i < a.label.size(); ++i)
    EXPECT_EQ(a.label[i], b.label[i]) << "label of node " << i;
  EXPECT_EQ(a.optimal_delay, b.optimal_delay);
  EXPECT_EQ(a.netlist.num_gates(), b.netlist.num_gates());
  EXPECT_EQ(a.netlist.total_area(), b.netlist.total_area());
  EXPECT_EQ(a.netlist.gate_histogram(), b.netlist.gate_histogram());
}

TEST(CutMap, CorrectOnSmallSuite) {
  GateLibrary lib = make_lib2_library();
  for (const auto& b : make_small_suite()) {
    Network sg = tech_decompose(b.network);
    MapResult r = cut_map(sg, lib);
    r.netlist.check();
    EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent)
        << b.name;
    EXPECT_NEAR(circuit_delay(r.netlist), r.optimal_delay, 1e-9) << b.name;
  }
}

TEST(CutMap, NeverWorseThanStructuralBackend) {
  // The theorem behind fuzz invariant #9: per node the candidate set is
  // the union of the structural matches and the NPN cut matches, so by
  // induction every label — and hence the mapped delay — is never worse
  // than dag_map's on the same subject and library.
  GateLibrary lib = make_lib2_library();
  for (const auto& b : make_small_suite()) {
    Network sg = tech_decompose(b.network);
    MapResult rs = dag_map(sg, lib);
    MapResult rc = cut_map(sg, lib);
    ASSERT_EQ(rs.label.size(), rc.label.size());
    for (std::size_t i = 0; i < rs.label.size(); ++i)
      EXPECT_LE(rc.label[i], rs.label[i] + 1e-9)
          << b.name << " node " << i;
    EXPECT_LE(rc.optimal_delay, rs.optimal_delay + 1e-9) << b.name;
  }
}

TEST(CutMap, FindsXorRegardlessOfDecompositionShape) {
  // Boolean matching is shape-insensitive: both the balanced and the
  // chain decomposition of XOR map to the xor2 gate.
  GateLibrary lib = make_lib2_library();
  for (DecompShape shape : {DecompShape::Balanced, DecompShape::Chain}) {
    Network src("x");
    NodeId a = src.add_input("a");
    NodeId b = src.add_input("b");
    src.add_output(src.add_xor(a, b), "o");
    TechDecompOptions opt;
    opt.shape = shape;
    Network sg = tech_decompose(src, opt);
    MapResult r = cut_map(sg, lib);
    EXPECT_EQ(r.netlist.gate_histogram().count("xor2"), 1u);
    EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
  }
}

TEST(CutMap, StrictlyBeatsStructuralOnHiddenMatches) {
  // A chain-decomposed parity tree hides the XOR shapes the structural
  // pattern generator expects; the NPN cut matches find them anyway.
  GateLibrary lib = make_lib2_library();
  TechDecompOptions opt;
  opt.shape = DecompShape::Chain;
  Network sg = tech_decompose(make_parity_tree(8), opt);
  MapResult rs = dag_map(sg, lib);
  MapResult rc = cut_map(sg, lib);
  EXPECT_LT(rc.optimal_delay, rs.optimal_delay - 1e-9);
  EXPECT_TRUE(check_equivalence(sg, rc.netlist.to_network()).equivalent);
}

TEST(CutMap, AreaRoundsKeepTheDelayBound) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_alu(6));
  MapResult r1 = cut_map(sg, lib);

  CutMapOptions tight;
  tight.rounds = 3;  // delay_factor 1.0: zero slack
  MapResult r3 = cut_map(sg, lib, tight);
  EXPECT_EQ(r3.optimal_delay, r1.optimal_delay);
  EXPECT_NEAR(circuit_delay(r3.netlist), r1.optimal_delay, 1e-9);
  EXPECT_TRUE(check_equivalence(sg, r3.netlist.to_network()).equivalent);

  CutMapOptions slack;
  slack.rounds = 3;
  slack.delay_factor = 1.5;
  MapResult rs = cut_map(sg, lib, slack);
  EXPECT_LE(circuit_delay(rs.netlist),
            r1.optimal_delay * 1.5 + 1e-9);
  EXPECT_TRUE(check_equivalence(sg, rs.netlist.to_network()).equivalent);
}

TEST(CutMap, AreaRecoveryWorksOnTheCutSource) {
  // `area_recovery` is not a structural-source knob: it asks the cut
  // source for an area round too (first-wins tie; DESIGN.md §14), with
  // the same delay bound as `rounds`.
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_comparator(8));
  MapResult fastest = cut_map(sg, lib);
  CutMapOptions o;
  o.area_recovery = true;
  MapResult r = cut_map(sg, lib, o);
  EXPECT_EQ(r.optimal_delay, fastest.optimal_delay);
  EXPECT_NEAR(circuit_delay(r.netlist), fastest.optimal_delay, 1e-9);
  EXPECT_LT(r.netlist.total_area(), fastest.netlist.total_area());
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
}

TEST(CutMap, SharedNpnIndexIsBitIdentical) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_hamming_decoder(8));
  NpnLibraryIndex index(lib);
  EXPECT_GT(index.num_entries(), 0u);
  CutMapOptions shared;
  shared.npn_index = &index;
  expect_same_result(cut_map(sg, lib, {}), cut_map(sg, lib, shared));
}

TEST(CutMap, SequentialSubjects) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_sequential_pipeline(3, 6, 41));
  MapResult r = cut_map(sg, lib);
  EXPECT_EQ(r.netlist.latches().size(), sg.num_latches());
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
}

TEST(CutMap, SmallCutBudgetsStayComplete) {
  // Even with the weakest complete library, a 2-leaf cut bound and a
  // single priority cut per node, mapping must succeed (the trivial cut
  // and the structural NAND2/INV matches guarantee coverage).
  GateLibrary lib = make_minimal_library();
  Network sg = tech_decompose(make_parity_tree(8));
  CutMapOptions opt;
  opt.cuts.size = 2;
  opt.cuts.count = 1;
  MapResult r = cut_map(sg, lib, opt);
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
}

TEST(CutMap, ReportsWorkAndDuplicationStats) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_comparator(6));
  MapResult r = cut_map(sg, lib);
  EXPECT_GT(r.matches_enumerated, 0u);
  EXPECT_GT(r.match_attempts, 0u);
  EXPECT_GT(r.covered_distinct, 0u);
  EXPECT_GE(r.covered_instances, r.covered_distinct);
  EXPECT_GT(r.cpu_seconds, 0.0);
}

}  // namespace
}  // namespace dagmap
