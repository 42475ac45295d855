// Tests for the delay-optimal DAG mapper (the paper's contribution),
// including the Figure 2 duplication scenario and optimality properties.
#include "core/dag_mapper.hpp"

#include <gtest/gtest.h>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "netlist/assert.hpp"
#include "library/standard_libs.hpp"
#include "sim/simulator.hpp"
#include "timing/timing.hpp"
#include "treemap/tree_mapper.hpp"

namespace dagmap {
namespace {

Network full_adder_subject() {
  Network n("fa");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId cin = n.add_input("cin");
  NodeId sum = n.add_xor(n.add_xor(a, b), cin);
  NodeId cout = n.add_maj3(a, b, cin);
  n.add_output(sum, "sum");
  n.add_output(cout, "cout");
  return tech_decompose(n);
}

TEST(DagMapper, MapsFullAdderCorrectly) {
  Network sg = full_adder_subject();
  GateLibrary lib = make_lib2_library();
  MapResult r = dag_map(sg, lib);
  r.netlist.check();
  EXPECT_GT(r.netlist.num_gates(), 0u);
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
}

TEST(DagMapper, MappedDelayEqualsOptimalLabel) {
  Network sg = full_adder_subject();
  GateLibrary lib = make_lib2_library();
  MapResult r = dag_map(sg, lib);
  double mapped_delay = circuit_delay(r.netlist);
  EXPECT_NEAR(mapped_delay, r.optimal_delay, 1e-9);
}

TEST(DagMapper, NeverWorseThanTreeMapping) {
  GateLibrary lib2 = make_lib2_library();
  GateLibrary l441 = make_44_library(1);
  for (const GateLibrary* lib : {&lib2, &l441}) {
    Network sg = full_adder_subject();
    MapResult dag = dag_map(sg, *lib);
    MapResult tree = tree_map(sg, *lib);
    EXPECT_LE(dag.optimal_delay, tree.optimal_delay + 1e-9) << lib->name();
    EXPECT_TRUE(check_equivalence(sg, tree.netlist.to_network()).equivalent);
  }
}

// ---- Figure 2: duplication of subject-graph nodes ----------------------
//
// Subject: mid = NAND(a,b) fans out to two outputs o1 = NAND(mid, c),
// o2 = NAND(mid, d).  The library has a fast 3-input gate whose pattern
// is NAND(NAND(p0,p1), p2).  Tree covering cannot use it (mid is a
// multi-fanout point, so no exact match), DAG covering uses it twice,
// duplicating mid — and creating new multi-fanout points at a and b.
TEST(DagMapper, Figure2DuplicationBeatsTreeMapping) {
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1.0 0 1.0 0\n"
      "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1.2 0 1.2 0\n"
      "GATE big3 3 O=a*b+!c;\n PIN * UNKNOWN 1 999 1.0 0 1.0 0\n",
      "fig2");
  // big3 = ab + !c = !(!(ab) * c) -> pattern NAND(NAND(p0,p1),p2)
  // (chain lowering); verify it matches.
  Network sg("fig2");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId c = sg.add_input("c");
  NodeId d = sg.add_input("d");
  NodeId mid = sg.add_nand2(a, b);
  NodeId o1 = sg.add_nand2(mid, c);
  NodeId o2 = sg.add_nand2(mid, d);
  sg.add_output(o1, "o1");
  sg.add_output(o2, "o2");

  MapResult dag = dag_map(sg, lib);
  MapResult tree = tree_map(sg, lib);

  // DAG: both outputs implemented by one big3 gate each (delay 1.0).
  EXPECT_NEAR(dag.optimal_delay, 1.0, 1e-9);
  // Tree: mid must be mapped separately (nand2), then another nand2:
  // 1.2 + 1.2.
  EXPECT_NEAR(tree.optimal_delay, 2.4, 1e-9);
  // Both are correct.
  EXPECT_TRUE(check_equivalence(sg, dag.netlist.to_network()).equivalent);
  EXPECT_TRUE(check_equivalence(sg, tree.netlist.to_network()).equivalent);
  // Duplication: the DAG mapping uses two big3 instances and no nand2.
  auto hist = dag.netlist.gate_histogram();
  EXPECT_EQ(hist["big3"], 2u);
  EXPECT_EQ(hist.count("nand2"), 0u);
  // Tree mapping keeps the multi-fanout point: exactly 3 nand2 gates.
  auto thist = tree.netlist.gate_histogram();
  EXPECT_EQ(thist["nand2"], 3u);
}

TEST(DagMapper, LabelsAreMonotoneAlongPaths) {
  Network sg = full_adder_subject();
  GateLibrary lib = make_lib2_library();
  MapResult r = dag_map(sg, lib);
  // Every internal node's label is positive and at least the label of
  // the fastest fanin plus the smallest pin delay in the library.
  for (NodeId n = 0; n < sg.size(); ++n) {
    if (sg.is_source(n)) {
      EXPECT_EQ(r.label[n], 0.0);
    } else {
      EXPECT_GT(r.label[n], 0.0);
    }
  }
}

TEST(DagMapper, BruteForceOptimalOnTinyGraph) {
  // Exhaustively verify optimality on a tiny subject graph: the label at
  // the output must equal the minimum over all covers, which for this
  // 3-node graph we can enumerate by hand:
  //   o = INV(NAND(a,b)):  covers: {inv+nand2} or {and2}.
  GateLibrary lib = make_lib2_library();  // and2 delay 1.6; inv 1.0+nand2 1.2
  Network sg("tiny");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId g = sg.add_nand2(a, b);
  NodeId h = sg.add_inv(g);
  sg.add_output(h, "o");
  MapResult r = dag_map(sg, lib);
  EXPECT_NEAR(r.optimal_delay, 1.6, 1e-9);  // and2 wins over 2.2
  EXPECT_EQ(r.netlist.num_gates(), 1u);
}

TEST(DagMapper, ExtendedMatchesNeverWorse) {
  GateLibrary lib = make_lib2_library();
  Network sg = full_adder_subject();
  DagMapOptions std_opt, ext_opt;
  ext_opt.match_class = MatchClass::Extended;
  MapResult rs = dag_map(sg, lib, std_opt);
  MapResult re = dag_map(sg, lib, ext_opt);
  EXPECT_LE(re.optimal_delay, rs.optimal_delay + 1e-9);
  EXPECT_TRUE(check_equivalence(sg, re.netlist.to_network()).equivalent);
}

TEST(DagMapper, AreaRecoveryKeepsOptimalDelay) {
  GateLibrary lib = make_lib2_library();
  Network sg = full_adder_subject();
  DagMapOptions plain, recover;
  recover.area_recovery = true;
  MapResult r1 = dag_map(sg, lib, plain);
  MapResult r2 = dag_map(sg, lib, recover);
  EXPECT_NEAR(circuit_delay(r2.netlist), r1.optimal_delay, 1e-9);
  EXPECT_LE(r2.netlist.total_area(), r1.netlist.total_area() + 1e-9);
  EXPECT_TRUE(check_equivalence(sg, r2.netlist.to_network()).equivalent);
}

TEST(DagMapper, TargetDelayRelaxation) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_comparator(8));
  MapResult fastest = dag_map(sg, lib);
  DagMapOptions relax;
  relax.area_recovery = true;
  relax.target_delay = fastest.optimal_delay * 1.25;
  MapResult r = dag_map(sg, lib, relax);
  EXPECT_LE(circuit_delay(r.netlist), relax.target_delay + 1e-9);
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
  // The relaxed mapping should not cost more area than the recovered
  // optimum mapping.
  DagMapOptions tight;
  tight.area_recovery = true;
  MapResult rt = dag_map(sg, lib, tight);
  EXPECT_LE(r.netlist.total_area(), rt.netlist.total_area() * 1.05 + 1e-9);
  // A target below the optimum clamps to the optimum.
  DagMapOptions impossible;
  impossible.area_recovery = true;
  impossible.target_delay = fastest.optimal_delay * 0.5;
  MapResult ri = dag_map(sg, lib, impossible);
  EXPECT_NEAR(circuit_delay(ri.netlist), fastest.optimal_delay, 1e-9);
}

TEST(DagMapper, AreaRoundsWorkOnTheStructuralSource) {
  // `rounds` / `delay_factor` are not cut-source knobs: on structural
  // candidates they relax non-critical nodes under the delay bound too.
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_comparator(8));
  MapResult fastest = dag_map(sg, lib);
  DagMapOptions o;
  o.rounds = 3;
  o.delay_factor = 1.2;
  MapResult r = dag_map(sg, lib, o);
  EXPECT_EQ(r.optimal_delay, fastest.optimal_delay);
  EXPECT_LE(circuit_delay(r.netlist), fastest.optimal_delay * 1.2 + 1e-9);
  EXPECT_LT(r.netlist.total_area(), fastest.netlist.total_area());
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
}

TEST(MapOptionsValidation, RangesAndKnobsTheSourceWouldIgnore) {
  auto why = [](auto edit) {
    MapOptions o;
    edit(o);
    return validate_map_options(o);
  };
  EXPECT_EQ(why([](MapOptions&) {}), "");
  EXPECT_EQ(why([](MapOptions& o) { o.cuts.size = 5; }),
            "bad cut size 5 (want 2..4)");
  EXPECT_EQ(why([](MapOptions& o) { o.cuts.count = 65; }),
            "bad cut count 65 (want 1..64)");
  EXPECT_EQ(why([](MapOptions& o) { o.rounds = 0; }),
            "bad rounds 0 (want 1..16)");
  EXPECT_EQ(why([](MapOptions& o) { o.rounds = 17; }),
            "bad rounds 17 (want 1..16)");
  EXPECT_EQ(why([](MapOptions& o) { o.load_rounds = 17; }),
            "bad load rounds 17 (want 0..16)");
  EXPECT_EQ(why([](MapOptions& o) { o.delay_factor = 101; }),
            "bad delay factor 101 (want 1..100)");
  EXPECT_EQ(why([](MapOptions& o) { o.delay_factor = 0.5; }),
            "bad delay factor 0.5 (want 1..100)");
  // The cut knobs belong to the cut source.
  EXPECT_EQ(why([](MapOptions& o) { o.cuts.count = 4; }),
            "cut size and cut count apply to the cuts backend");
  EXPECT_EQ(why([](MapOptions& o) {
              o.source = CandidateSource::Cuts;
              o.cuts.size = 3;
              o.cuts.count = 4;
            }),
            "");
  // A delay factor or target needs an area round to act on.
  const std::string no_round =
      "a delay factor or target applies only to area recovery "
      "(rounds > 1 or area recovery on)";
  EXPECT_EQ(why([](MapOptions& o) { o.delay_factor = 1.2; }), no_round);
  EXPECT_EQ(why([](MapOptions& o) { o.target_delay = 5.0; }), no_round);
  EXPECT_EQ(why([](MapOptions& o) {
              o.delay_factor = 1.2;
              o.rounds = 2;
            }),
            "");
  EXPECT_EQ(why([](MapOptions& o) {
              o.target_delay = 5.0;
              o.area_recovery = true;
            }),
            "");
}

TEST(DagMapper, RicherLibraryNeverSlower) {
  Network sg = full_adder_subject();
  GateLibrary l1 = make_44_library(1);
  GateLibrary l3 = make_44_library(3);
  MapResult r1 = dag_map(sg, l1);
  MapResult r3 = dag_map(sg, l3);
  // 44-3 is a functional superset with identical base delays, so the
  // optimal delay cannot increase.
  EXPECT_LE(r3.optimal_delay, r1.optimal_delay + 1e-9);
}

TEST(DagMapper, RequiresSubjectGraph) {
  GateLibrary lib = make_minimal_library();
  Network n("generic");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_xor(a, b), "o");
  EXPECT_THROW(dag_map(n, lib), ContractError);
}

TEST(DagMapper, RequiresCompleteLibrary) {
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1.0 0 1.0 0\n");
  Network sg("s");
  NodeId a = sg.add_input("a");
  sg.add_output(sg.add_inv(a), "o");
  EXPECT_THROW(dag_map(sg, lib), ContractError);
}

TEST(DagMapper, SequentialCombinationalPortionMapped) {
  Network n("seq");
  NodeId x = n.add_input("x");
  NodeId s = n.add_latch_placeholder("state");
  NodeId nxt = n.add_xor(x, s);
  n.connect_latch(s, nxt);
  n.add_output(s, "q");
  Network sg = tech_decompose(n);
  GateLibrary lib = make_lib2_library();
  MapResult r = dag_map(sg, lib);
  EXPECT_EQ(r.netlist.latches().size(), 1u);
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
  EXPECT_GT(r.optimal_delay, 0.0);  // latch D cone has gates
}

}  // namespace
}  // namespace dagmap
