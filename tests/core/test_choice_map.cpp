// Choice networks as a first-class layer (§4's Lehman–Watanabe
// combination): the ChoiceClasses annotation, the variant generators,
// choice-aware mapping on both backends, and the determinism contracts
// (choices-off bit-identity, thread-count bit-identity).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"
#include "sim/simulator.hpp"
#include "timing/timing.hpp"

namespace dagmap {
namespace {

constexpr double kEps = 1e-9;

// ---- decomposition + annotation ------------------------------------------

TEST(Choices, WideAndProducesAChoiceClass) {
  // A 4-input AND has distinct balanced and chain NAND decompositions.
  Network src("and4");
  std::vector<NodeId> ins;
  for (int i = 0; i < 4; ++i)
    ins.push_back(src.add_input("i" + std::to_string(i)));
  src.add_output(src.add_and(std::span<const NodeId>(ins)), "o");
  ChoiceDecomposition c = tech_decompose_choices(src);
  c.validate();
  EXPECT_GE(c.num_choices(), 1u);
  EXPECT_TRUE(c.classes.active());
  EXPECT_GE(c.classes.num_variants(), 1u);
  c.subject.check();
  EXPECT_TRUE(c.subject.is_subject_graph());
}

TEST(Choices, TwoInputNodesHaveNoChoices) {
  Network src("and2");
  NodeId a = src.add_input("a");
  NodeId b = src.add_input("b");
  src.add_output(src.add_and(a, b), "o");
  ChoiceDecomposition c = tech_decompose_choices(src);
  c.validate();
  EXPECT_EQ(c.num_choices(), 0u);
  EXPECT_FALSE(c.classes.active());
}

TEST(Choices, GeneratorMaskSelectsVariants) {
  Network src = make_alu(4);
  ChoiceOptions one;
  one.gens = kChoiceGenBalanced;  // one shape: nothing to choose between
  ChoiceDecomposition single = tech_decompose_choices(src, one);
  single.validate();

  ChoiceDecomposition all = tech_decompose_choices(src);
  all.validate();
  EXPECT_GE(all.classes.num_variants(), single.classes.num_variants());
  EXPECT_GE(all.num_choices(), 1u);
}

TEST(Choices, ParseChoiceGens) {
  EXPECT_EQ(parse_choice_gens(""), kChoiceGenAll);
  EXPECT_EQ(parse_choice_gens("all"), kChoiceGenAll);
  EXPECT_EQ(parse_choice_gens("balanced"), kChoiceGenBalanced);
  EXPECT_EQ(parse_choice_gens("chain,andor"),
            kChoiceGenChain | kChoiceGenAndOr);
  EXPECT_FALSE(parse_choice_gens("bogus").has_value());
  EXPECT_FALSE(parse_choice_gens("balanced,").has_value());
}

TEST(Choices, ClassStructureIsConsistent) {
  ChoiceDecomposition c = tech_decompose_choices(make_alu(4));
  c.validate();
  const ChoiceClasses& cls = c.classes;
  ASSERT_EQ(cls.size(), c.subject.size());
  std::size_t anchors = 0;
  for (NodeId n = 0; n < c.subject.size(); ++n) {
    std::span<const NodeId> mem = cls.members(n);
    if (mem.empty()) {
      EXPECT_EQ(cls.repr(n), n);
      EXPECT_GE(cls.anchor(n), n);  // identity or a later burst anchor
      continue;
    }
    ASSERT_GE(mem.size(), 2u);
    EXPECT_EQ(cls.repr(n), mem.front());
    EXPECT_EQ(cls.anchor(n), mem.back());
    for (std::size_t i = 1; i < mem.size(); ++i)
      EXPECT_LT(mem[i - 1], mem[i]);
    if (cls.is_class_anchor(n)) {
      ++anchors;
      EXPECT_EQ(n, mem.back());
    }
  }
  EXPECT_EQ(anchors, cls.num_choices());
}

TEST(Choices, VariantsAreFunctionallyEquivalent) {
  // Every member of a class must compute the same function of the PIs.
  ChoiceDecomposition c = tech_decompose_choices(make_comparator(4));
  c.validate();
  const Network& sg = c.subject;
  std::vector<std::uint64_t> in(sg.num_inputs());
  std::uint64_t s = 99;
  for (auto& w : in) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    w = s;
  }
  Network probe = sg;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // (start, count)
  std::size_t base = probe.num_outputs();
  std::size_t k = 0;
  for (NodeId n = 0; n < sg.size(); ++n) {
    if (!c.classes.is_class_anchor(n)) continue;
    std::span<const NodeId> mem = c.classes.members(n);
    for (NodeId m : mem) probe.add_output(m, "probe" + std::to_string(k++));
    spans.push_back({base, mem.size()});
    base += mem.size();
  }
  ASSERT_FALSE(spans.empty());
  auto out = simulate64(probe, in);
  for (auto [start, count] : spans)
    for (std::size_t i = 1; i < count; ++i)
      EXPECT_EQ(out[start], out[start + i]) << "class at output " << start;
}

// ---- mapping: delay bound, equivalence, stats ----------------------------

TEST(ChoiceMap, NeverWorseThanChoicesOffOnBothBackends) {
  GateLibrary lib = make_lib2_library();
  for (auto& b : make_small_suite()) {
    ChoiceDecomposition c = tech_decompose_choices(b.network);
    c.validate();
    MapResult base = dag_map(c.subject, lib);
    MapResult on = dag_map(c.subject, lib, {.choices = &c.classes});
    // Guaranteed: per-class pricing only ever lowers a leaf price.
    EXPECT_LE(on.optimal_delay, base.optimal_delay + kEps) << b.name;

    CutMapOptions copt;
    copt.choices = &c.classes;
    MapResult cut_on = cut_map(c.subject, lib, copt);
    // The cut backend's candidates are a superset of the structural
    // matcher's, so the same baseline bounds it.
    EXPECT_LE(cut_on.optimal_delay, base.optimal_delay + kEps) << b.name;
  }
}

TEST(ChoiceMap, ResultIsEquivalentToSourceOnBothBackends) {
  GateLibrary lib = make_lib2_library();
  for (auto& b : make_small_suite()) {
    ChoiceDecomposition c = tech_decompose_choices(b.network);
    c.validate();
    MapResult r = dag_map(c.subject, lib, {.choices = &c.classes});
    r.netlist.check();
    EXPECT_TRUE(check_equivalence(b.network, r.netlist.to_network()).equivalent)
        << b.name << " structural";
    if (c.classes.active()) {
      EXPECT_EQ(r.choice_classes, c.num_choices()) << b.name;
      EXPECT_EQ(r.choice_variants, c.classes.num_variants()) << b.name;
    }

    CutMapOptions copt;
    copt.choices = &c.classes;
    MapResult rc = cut_map(c.subject, lib, copt);
    rc.netlist.check();
    EXPECT_TRUE(
        check_equivalence(b.network, rc.netlist.to_network()).equivalent)
        << b.name << " cuts";
  }
}

TEST(ChoiceMap, MappedDelayMatchesReportedOptimum) {
  GateLibrary lib = make_lib2_library();
  ChoiceDecomposition c = tech_decompose_choices(make_alu(4));
  c.validate();
  MapResult r = dag_map(c.subject, lib, {.choices = &c.classes});
  EXPECT_NEAR(circuit_delay(r.netlist), r.optimal_delay, kEps);
}

TEST(ChoiceMap, AreaRecoveryAndRoundsPreserveTheChoiceDelay) {
  GateLibrary lib = make_lib2_library();
  ChoiceDecomposition c = tech_decompose_choices(make_alu(4));
  c.validate();
  MapResult fast = dag_map(c.subject, lib, {.choices = &c.classes});
  MapResult rec = dag_map(c.subject, lib,
                          {.area_recovery = true, .choices = &c.classes});
  EXPECT_NEAR(rec.optimal_delay, fast.optimal_delay, kEps);
  EXPECT_NEAR(circuit_delay(rec.netlist), fast.optimal_delay, kEps);
  EXPECT_TRUE(
      check_equivalence(c.subject, rec.netlist.to_network()).equivalent);

  CutMapOptions copt;
  copt.choices = &c.classes;
  MapResult r1 = cut_map(c.subject, lib, copt);
  copt.rounds = 3;
  MapResult r3 = cut_map(c.subject, lib, copt);
  EXPECT_NEAR(r3.optimal_delay, r1.optimal_delay, kEps);
  EXPECT_LE(r3.netlist.total_area(), r1.netlist.total_area() + kEps);
  EXPECT_TRUE(check_equivalence(c.subject, r3.netlist.to_network()).equivalent);
}

// ---- edge cases -----------------------------------------------------------

TEST(ChoiceMap, LatchDInputsMayReferenceVariants) {
  // Sequential circuits: latch D inputs reference class anchors in the
  // choice subject and get redirected to the winning variant at cover
  // time — latch count and sequential behaviour must survive.
  GateLibrary lib = make_lib2_library();
  Network src = make_sequential_pipeline(3, 6, 13);
  ChoiceDecomposition c = tech_decompose_choices(src);
  c.validate();
  MapResult r = dag_map(c.subject, lib, {.choices = &c.classes});
  r.netlist.check();
  EXPECT_EQ(r.netlist.latches().size(), src.num_latches());
  EXPECT_TRUE(check_equivalence(src, r.netlist.to_network()).equivalent);

  CutMapOptions copt;
  copt.choices = &c.classes;
  MapResult rc = cut_map(c.subject, lib, copt);
  rc.netlist.check();
  EXPECT_EQ(rc.netlist.latches().size(), src.num_latches());
  EXPECT_TRUE(check_equivalence(src, rc.netlist.to_network()).equivalent);
}

TEST(ChoiceMap, DeadVariantsAreNotEmitted) {
  // When a fold picks a variant, the losing variants' logic cones must
  // not be emitted unless something else still needs them.  The subject
  // carries every variant; a cover that emitted the dead ones too would
  // blow the gate count up by the variant overhead — covering only the
  // chosen variants keeps it in the same ballpark as the
  // single-structure mapping (generous 2x slack, no flakiness).
  GateLibrary lib = make_lib2_library();
  Network src = make_alu(4);
  Network plain = tech_decompose(src);
  ChoiceDecomposition c = tech_decompose_choices(src);
  c.validate();
  MapResult on = dag_map(c.subject, lib, {.choices = &c.classes});
  on.netlist.check();
  MapResult single = dag_map(plain, lib);
  EXPECT_LE(on.netlist.num_gates(), 2 * single.netlist.num_gates());
  EXPECT_TRUE(check_equivalence(src, on.netlist.to_network()).equivalent);
}

TEST(ChoiceMap, ChoicesCanBeatSingleShapes) {
  // A 6-input AND: the choice mapping must match the better of the two
  // fixed single-shape decompositions it contains variants of.
  GateLibrary lib = make_lib2_library();
  Network src("and6");
  std::vector<NodeId> ins;
  for (int i = 0; i < 6; ++i)
    ins.push_back(src.add_input("i" + std::to_string(i)));
  src.add_output(src.add_and(std::span<const NodeId>(ins)), "o");

  ChoiceDecomposition c = tech_decompose_choices(src);
  c.validate();
  MapResult rx = dag_map(c.subject, lib, {.choices = &c.classes});

  TechDecompOptions bal, chain;
  chain.shape = DecompShape::Chain;
  MapResult rb = dag_map(tech_decompose(src, bal), lib);
  MapResult rc = dag_map(tech_decompose(src, chain), lib);
  EXPECT_LE(rx.optimal_delay,
            std::min(rb.optimal_delay, rc.optimal_delay) + kEps);
}

// ---- determinism contracts ------------------------------------------------

TEST(ChoiceMap, BitIdenticalAcrossThreadCounts) {
  GateLibrary lib = make_lib2_library();
  ChoiceDecomposition c = tech_decompose_choices(make_alu(4));
  c.validate();

  DagMapOptions base;
  base.choices = &c.classes;
  MapResult r1 = dag_map(c.subject, lib, base);
  std::string blif1 = write_mapped_blif(r1.netlist);
  for (unsigned threads : {2u, 4u, 8u}) {
    DagMapOptions o = base;
    o.num_threads = threads;
    MapResult r = dag_map(c.subject, lib, o);
    EXPECT_EQ(r.label, r1.label) << threads << " threads";
    EXPECT_EQ(write_mapped_blif(r.netlist), blif1) << threads << " threads";
  }

  CutMapOptions cbase;
  cbase.choices = &c.classes;
  MapResult q1 = cut_map(c.subject, lib, cbase);
  std::string cblif1 = write_mapped_blif(q1.netlist);
  for (unsigned threads : {2u, 4u, 8u}) {
    CutMapOptions o = cbase;
    o.num_threads = threads;
    MapResult q = cut_map(c.subject, lib, o);
    EXPECT_EQ(q.label, q1.label) << threads << " threads (cuts)";
    EXPECT_EQ(write_mapped_blif(q.netlist), cblif1)
        << threads << " threads (cuts)";
  }
}

TEST(ChoiceMap, WideChoiceSubjectBitIdenticalAcrossThreadCounts) {
  // A multiplier's choice subject: wider depth waves than alu(4)'s, so
  // more choice-class members are labeled in the same wave.
  GateLibrary lib = make_lib2_library();
  ChoiceDecomposition c = tech_decompose_choices(make_array_multiplier(6));
  c.validate();

  DagMapOptions base;
  base.choices = &c.classes;
  MapResult r1 = dag_map(c.subject, lib, base);
  const std::string blif1 = write_mapped_blif(r1.netlist);
  for (unsigned threads : {2u, 4u}) {
    DagMapOptions o = base;
    o.num_threads = threads;
    MapResult r = dag_map(c.subject, lib, o);
    EXPECT_EQ(r.label, r1.label) << threads << " threads";
    EXPECT_EQ(r.optimal_delay, r1.optimal_delay) << threads << " threads";
    EXPECT_EQ(write_mapped_blif(r.netlist), blif1) << threads << " threads";
  }
}

TEST(ChoiceMap, InertAnnotationIsBitIdenticalToNull) {
  // The choices-off determinism contract on the golden corpus: a
  // finalized but class-free annotation must take the historical code
  // path exactly — labels and BLIF bytes equal to the null-pointer run.
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string dir = std::string(DAGMAP_TEST_DATA_DIR) + "/golden/";
  for (const char* stem :
       {"gray3", "full_adder", "decoder2", "mux4", "parity5", "majxor"}) {
    SCOPED_TRACE(stem);
    Network circuit = parse_blif(slurp(dir + stem + ".blif"));
    GateLibrary lib =
        GateLibrary::from_genlib_text(slurp(dir + stem + ".genlib"), stem);
    Network subject = tech_decompose(circuit);

    ChoiceClasses inert;
    inert.finalize(subject.size());
    ASSERT_FALSE(inert.active());

    MapResult null_run = dag_map(subject, lib);
    MapResult inert_run = dag_map(subject, lib, {.choices = &inert});
    EXPECT_EQ(inert_run.label, null_run.label);
    EXPECT_EQ(inert_run.optimal_delay, null_run.optimal_delay);
    EXPECT_EQ(write_mapped_blif(inert_run.netlist),
              write_mapped_blif(null_run.netlist));
    EXPECT_EQ(inert_run.choice_classes, 0u);

    MapResult cut_null = cut_map(subject, lib);
    CutMapOptions copt;
    copt.choices = &inert;
    MapResult cut_inert = cut_map(subject, lib, copt);
    EXPECT_EQ(cut_inert.label, cut_null.label);
    EXPECT_EQ(write_mapped_blif(cut_inert.netlist),
              write_mapped_blif(cut_null.netlist));
  }
}

}  // namespace
}  // namespace dagmap
