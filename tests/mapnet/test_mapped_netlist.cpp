// Tests for MappedNetlist and cover construction.
#include "mapnet/mapped_netlist.hpp"

#include <gtest/gtest.h>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/cover.hpp"
#include "mapnet/write.hpp"
#include "netlist/assert.hpp"
#include "sim/simulator.hpp"

namespace dagmap {
namespace {

const Gate* find_gate(const GateLibrary& lib, const std::string& name) {
  for (const Gate& g : lib.gates())
    if (g.name == name) return &g;
  return nullptr;
}

TEST(MappedNetlist, BasicConstructionAndStats) {
  GateLibrary lib = make_lib2_library();
  MappedNetlist m("t");
  InstId a = m.add_input("a");
  InstId b = m.add_input("b");
  const Gate* nand2 = find_gate(lib, "nand2");
  const Gate* inv = find_gate(lib, "inv");
  InstId g = m.add_gate(nand2, {a, b});
  InstId h = m.add_gate(inv, {g});
  m.add_output(h, "o");
  m.check();
  EXPECT_EQ(m.num_gates(), 2u);
  EXPECT_DOUBLE_EQ(m.total_area(), nand2->area + inv->area);
  auto hist = m.gate_histogram();
  EXPECT_EQ(hist["nand2"], 1u);
  EXPECT_EQ(hist["inv"], 1u);
}

TEST(MappedNetlist, ArityMismatchRejected) {
  GateLibrary lib = make_lib2_library();
  MappedNetlist m("t");
  InstId a = m.add_input("a");
  EXPECT_THROW(m.add_gate(find_gate(lib, "nand2"), {a}), ContractError);
}

TEST(MappedNetlist, ToNetworkPreservesFunction) {
  GateLibrary lib = make_lib2_library();
  MappedNetlist m("fa_carry");
  InstId a = m.add_input("a");
  InstId b = m.add_input("b");
  InstId c = m.add_input("cin");
  // cout = ab + c(a xor b): build as aoi + inv for test purposes —
  // simpler: maj via and/or gates.
  const Gate* and2 = find_gate(lib, "and2");
  const Gate* or2 = find_gate(lib, "or2");
  InstId ab = m.add_gate(and2, {a, b});
  InstId bc = m.add_gate(and2, {b, c});
  InstId ac = m.add_gate(and2, {a, c});
  InstId o1 = m.add_gate(or2, {ab, bc});
  InstId o2 = m.add_gate(or2, {o1, ac});
  m.add_output(o2, "maj");
  Network n = m.to_network();
  n.check();
  TruthTable t = output_truth_table(n, 0);
  EXPECT_EQ(t.to_hex(), "e8");
}

TEST(MappedNetlist, LatchRoundTrip) {
  GateLibrary lib = make_lib2_library();
  MappedNetlist m("seq");
  InstId x = m.add_input("x");
  InstId q = m.add_latch_placeholder("q");
  const Gate* xo = find_gate(lib, "xor2");
  InstId d = m.add_gate(xo, {x, q});
  m.connect_latch(q, d);
  m.add_output(q, "out");
  m.check();
  Network n = m.to_network();
  EXPECT_EQ(n.num_latches(), 1u);
  n.check();
}

TEST(Cover, BuildsFromChosenMatches) {
  GateLibrary lib = make_minimal_library();
  Network sg("s");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId g = sg.add_nand2(a, b);
  NodeId h = sg.add_inv(g);
  sg.add_output(h, "o");
  Matcher matcher(lib, sg);
  CoverSelection chosen(sg.size());
  chosen.set(g, matcher.matches_at(g, MatchClass::Standard).at(0));
  chosen.set(h, matcher.matches_at(h, MatchClass::Standard).at(0));
  MappedNetlist m = build_cover(sg, chosen);
  EXPECT_EQ(m.num_gates(), 2u);
  EXPECT_TRUE(check_equivalence(sg, m.to_network()).equivalent);
}

TEST(Cover, SkipsNodesCoveredInsideMatches) {
  // and2 at the INV root covers the NAND internally: only one gate.
  GateLibrary lib = make_lib2_library();
  Network sg("s");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId g = sg.add_nand2(a, b);
  NodeId h = sg.add_inv(g);
  sg.add_output(h, "o");
  Matcher matcher(lib, sg);
  CoverSelection chosen(sg.size());
  for (const Match& m : matcher.matches_at(h, MatchClass::Standard))
    if (m.gate->name == "and2") chosen.set(h, m);
  ASSERT_TRUE(chosen.has(h));
  MappedNetlist m = build_cover(sg, chosen);
  EXPECT_EQ(m.num_gates(), 1u);
  EXPECT_TRUE(check_equivalence(sg, m.to_network()).equivalent);
}

TEST(Cover, MissingMatchDetected) {
  GateLibrary lib = make_minimal_library();
  Network sg("s");
  NodeId a = sg.add_input("a");
  NodeId g = sg.add_inv(a);
  sg.add_output(g, "o");
  CoverSelection chosen(sg.size());  // none selected
  EXPECT_THROW(build_cover(sg, chosen), ContractError);
  (void)lib;
}

TEST(Cover, ConstantsPassThrough) {
  GateLibrary lib = make_minimal_library();
  Network sg("s");
  NodeId c = sg.add_constant(true);
  sg.add_output(c, "one");
  CoverSelection chosen(sg.size());
  MappedNetlist m = build_cover(sg, chosen);
  EXPECT_EQ(m.num_gates(), 0u);
  EXPECT_TRUE(check_equivalence(sg, m.to_network()).equivalent);
  (void)lib;
}

TEST(Cover, PiDrivenOutput) {
  GateLibrary lib = make_minimal_library();
  Network sg("s");
  NodeId a = sg.add_input("a");
  sg.add_output(a, "o");
  CoverSelection chosen(sg.size());
  MappedNetlist m = build_cover(sg, chosen);
  EXPECT_EQ(m.num_gates(), 0u);
  EXPECT_EQ(m.outputs()[0].name, "o");
  (void)lib;
}

// The arena layout (which writer, which order) must never reach the
// netlist: only each node's view does.
TEST(Cover, WritersAndOrderDoNotChangeTheNetlist) {
  GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_comparator(4));
  Matcher matcher(lib, sg);
  std::vector<Match> pick(sg.size());
  for (NodeId n = 0; n < sg.size(); ++n)
    if (!sg.is_source(n)) {
      std::vector<Match> all = matcher.matches_at(n, MatchClass::Standard);
      ASSERT_FALSE(all.empty());
      pick[n] = all.back();
    }
  CoverSelection in_order(sg.size());
  for (NodeId n : sg.topo_order())
    if (!sg.is_source(n)) in_order.set(n, pick[n]);
  CoverSelection shuffled(sg.size(), 2);
  const auto& order = sg.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (!sg.is_source(*it)) shuffled.set(*it, pick[*it], *it % 2);

  MappedNetlist a = build_cover(sg, in_order);
  MappedNetlist b = build_cover(sg, shuffled);
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  EXPECT_EQ(write_mapped_blif(a), write_mapped_blif(b));
  EXPECT_TRUE(check_equivalence(sg, b.to_network()).equivalent);
}

// An area round re-sets needed nodes; only the last commit counts.
TEST(Cover, ResettingANodeKeepsOnlyTheLastMatch) {
  GateLibrary lib = make_lib2_library();
  Network sg("s");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId g = sg.add_nand2(a, b);
  NodeId h = sg.add_inv(g);
  sg.add_output(h, "o");
  Matcher matcher(lib, sg);
  const Match* and2 = nullptr;
  const Match* inv = nullptr;
  std::vector<Match> at_h = matcher.matches_at(h, MatchClass::Standard);
  for (const Match& m : at_h) {
    if (m.gate->name == "and2") and2 = &m;
    if (m.gate->name == "inv") inv = &m;
  }
  ASSERT_TRUE(and2 && inv);

  CoverSelection chosen(sg.size(), 2);
  chosen.set(g, matcher.matches_at(g, MatchClass::Standard).at(0), 1);
  chosen.set(h, *and2);
  chosen.set(h, *inv, 1);
  SelectedMatch last = chosen.at(h);
  EXPECT_EQ(last.gate, inv->gate);
  EXPECT_EQ(std::vector<NodeId>(last.pins.begin(), last.pins.end()),
            inv->pin_binding);
  EXPECT_EQ(std::vector<NodeId>(last.covered.begin(), last.covered.end()),
            inv->covered);
  MappedNetlist two = build_cover(sg, chosen);
  EXPECT_EQ(two.num_gates(), 2u);

  chosen.set(h, *and2, 1);
  MappedNetlist one = build_cover(sg, chosen);
  EXPECT_EQ(one.num_gates(), 1u);
  EXPECT_TRUE(check_equivalence(sg, one.to_network()).equivalent);
}

// Negated pins read one inverter per leaf, shared by every reader; a
// negated output gets an inverter after the gate.
TEST(Cover, NegatedRecordsEmitDeduplicatedInverters) {
  GateLibrary lib = make_lib2_library();
  const Gate* nand2 = find_gate(lib, "nand2");
  const Gate* inv = lib.inverter();
  Network sg("s");
  NodeId a = sg.add_input("a");
  NodeId b = sg.add_input("b");
  NodeId na = sg.add_inv(a);
  NodeId nb = sg.add_inv(b);
  NodeId either = sg.add_nand2(na, nb);  // a | b
  NodeId mixed = sg.add_nand2(na, b);    // !(!a & b)
  NodeId both = sg.add_inv(sg.add_nand2(a, b));
  sg.add_output(either, "either");
  sg.add_output(mixed, "mixed");
  sg.add_output(both, "both");

  CoverSelection chosen(sg.size());
  auto set = [&](NodeId n, std::initializer_list<NodeId> pins,
                 std::uint8_t input_negate, bool output_negate) {
    std::span<NodeId> slots =
        chosen.stage(0, nand2, pins.size(), {}, input_negate, output_negate);
    std::copy(pins.begin(), pins.end(), slots.begin());
    chosen.commit(n, 0);
  };
  set(either, {a, b}, 0b11, false);
  set(mixed, {a, b}, 0b01, false);
  set(both, {a, b}, 0b00, true);

  MappedNetlist m = build_cover(sg, chosen, {}, inv);
  EXPECT_EQ(m.num_gates(), 6u);  // 3 nand2, inverters of a, b and `both`
  EXPECT_EQ(m.gate_histogram()[inv->name], 3u);
  EXPECT_TRUE(check_equivalence(sg, m.to_network()).equivalent);
  EXPECT_THROW(build_cover(sg, chosen), ContractError);  // no inverter
}

}  // namespace
}  // namespace dagmap
