// Tests for bit-parallel simulation and equivalence checking.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "netlist/assert.hpp"

namespace dagmap {
namespace {

Network and_net() {
  Network n("and");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_and(a, b), "o");
  return n;
}

Network and_via_nand() {
  Network n("and2");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_inv(n.add_nand2(a, b)), "o");
  return n;
}

TEST(Simulator, ShannonEvaluationMatchesLaneLoop) {
  // Word-parallel Shannon reduction against the per-lane reference, on
  // random tables and random fanin words of every width the simulator
  // accepts; eval_logic (Shannon up to kShannonMaxInputs, lanes above)
  // agrees with both.
  std::mt19937_64 rng(0x51A770);
  std::vector<std::uint64_t> scratch(std::size_t{1} << TruthTable::kMaxVars);
  for (unsigned k = 0; k <= TruthTable::kMaxVars; ++k) {
    for (int trial = 0; trial < (k <= 10 ? 12 : 3); ++trial) {
      std::size_t words = k <= 6 ? 1 : std::size_t{1} << (k - 6);
      std::vector<std::uint64_t> bits(words);
      for (std::uint64_t& w : bits) w = rng();
      if (k < 6) bits[0] &= (std::uint64_t{1} << (std::size_t{1} << k)) - 1;
      TruthTable f = TruthTable::from_words(k, bits);
      std::vector<std::uint64_t> in(k);
      for (std::uint64_t& w : in) w = rng();
      std::uint64_t lanes = eval_logic_lanes(f, in);
      EXPECT_EQ(eval_logic_shannon(f, in, scratch), lanes)
          << k << " inputs, trial " << trial;
      EXPECT_EQ(eval_logic(f, in), lanes) << k << " inputs, trial " << trial;
    }
  }
}

TEST(Simulator, WordSimulationOfPrimitives) {
  Network n("prims");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  NodeId h = n.add_inv(g);
  NodeId x = n.add_xor(a, b);
  n.add_output(g, "nand");
  n.add_output(h, "and");
  n.add_output(x, "xor");
  std::vector<std::uint64_t> in{0b0101, 0b0011};
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0] & 0xF, 0b1110u);
  EXPECT_EQ(out[1] & 0xF, 0b0001u);
  EXPECT_EQ(out[2] & 0xF, 0b0110u);
}

TEST(Simulator, ConstantsSimulate) {
  Network n("c");
  NodeId a = n.add_input("a");
  NodeId c1 = n.add_constant(true);
  n.add_output(n.add_and(a, c1), "o");
  std::vector<std::uint64_t> in{0xDEADBEEF};
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0], 0xDEADBEEFull);
}

TEST(Simulator, LatchesAreSourcesAndDIsOutput) {
  Network n("seq");
  NodeId x = n.add_input("x");
  NodeId l = n.add_latch_placeholder("s");
  NodeId d = n.add_xor(x, l);
  n.connect_latch(l, d);
  n.add_output(l, "q");
  std::vector<std::uint64_t> in{0b0101, 0b0011};  // x, latch-out
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0] & 0xF, 0b0011u);  // PO = latch output directly
  EXPECT_EQ(out[1] & 0xF, 0b0110u);  // latch D = x ^ s
}

TEST(Simulator, EquivalentNetworksPass) {
  auto r = check_equivalence(and_net(), and_via_nand());
  EXPECT_TRUE(r.equivalent);
}

TEST(Simulator, InequivalentNetworksCaught) {
  Network n("or");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_or(a, b), "o");
  auto r = check_equivalence(and_net(), n);
  EXPECT_FALSE(r.equivalent);
  // Counterexample must actually distinguish AND from OR: exactly one of
  // a, b set.
  EXPECT_NE(r.source_bit(0), r.source_bit(1));
}

TEST(Simulator, InterfaceMismatchRejected) {
  Network n("one_pi");
  NodeId a = n.add_input("a");
  n.add_output(a, "o");
  EXPECT_THROW((void)check_equivalence(and_net(), n), ContractError);
}

TEST(Simulator, RandomModeFindsDifferences) {
  // 20 inputs forces random mode; difference is on a single AND path.
  Network n1("big1"), n2("big2");
  std::vector<NodeId> in1, in2;
  for (int i = 0; i < 20; ++i) {
    in1.push_back(n1.add_input("i" + std::to_string(i)));
    in2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  NodeId x1 = n1.add_xor(in1[0], in1[1]);
  NodeId x2 = n2.add_xor(in2[0], in2[1]);
  for (int i = 2; i < 20; ++i) {
    x1 = n1.add_xor(x1, in1[i]);
    x2 = n2.add_xor(x2, in2[i]);
  }
  n1.add_output(x1, "o");
  n2.add_output(n2.add_inv(x2), "o");
  auto r = check_equivalence(n1, n2);
  EXPECT_FALSE(r.equivalent);
}

TEST(Simulator, OutputTruthTableMatchesLocalFunction) {
  Network n("maj");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId c = n.add_input("c");
  n.add_output(n.add_maj3(a, b, c), "o");
  TruthTable t = output_truth_table(n, 0);
  EXPECT_EQ(t.to_hex(), "e8");
}

TEST(Simulator, OutputTruthTableWideNetwork) {
  // 8-input parity via a chain.
  Network n("par");
  std::vector<NodeId> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(n.add_input("i" + std::to_string(i)));
  NodeId x = ins[0];
  for (int i = 1; i < 8; ++i) x = n.add_xor(x, ins[i]);
  n.add_output(x, "o");
  TruthTable t = output_truth_table(n, 0);
  for (std::size_t m = 0; m < t.num_minterms(); ++m)
    EXPECT_EQ(t.bit(m), (std::popcount(m) & 1) == 1);
}

TEST(Simulator, ExhaustiveEquivalenceIsExact) {
  // Two networks differing on exactly one input assignment.
  Network n1("n1"), n2("n2");
  std::vector<NodeId> i1, i2;
  for (int i = 0; i < 8; ++i) {
    i1.push_back(n1.add_input("i" + std::to_string(i)));
    i2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  // n1: AND of all inputs.  n2: constant 0.  They differ only on all-ones.
  n1.add_output(n1.add_and(std::span<const NodeId>(i1)), "o");
  n2.add_output(n2.add_constant(false), "o");
  auto r = check_equivalence(n1, n2);
  EXPECT_FALSE(r.equivalent);
  ASSERT_EQ(r.counterexample.size(), 1u);
  EXPECT_EQ(r.counterexample[0], 0xFFull);
  EXPECT_EQ(r.counterexample_hex(), "0xff");
}

TEST(Simulator, CounterexampleBeyond64Sources) {
  // 70 sources: a = XOR of all 70 inputs, b = XOR of the first 69.  They
  // differ whenever input 69 is set, so random mode finds a difference in
  // the first round — and the counterexample must carry source indices
  // past the first word without truncation.
  Network n1("wide1"), n2("wide2");
  std::vector<NodeId> i1, i2;
  for (int i = 0; i < 70; ++i) {
    i1.push_back(n1.add_input("i" + std::to_string(i)));
    i2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  NodeId x1 = i1[0], x2 = i2[0];
  for (int i = 1; i < 70; ++i) x1 = n1.add_xor(x1, i1[i]);
  for (int i = 1; i < 69; ++i) x2 = n2.add_xor(x2, i2[i]);
  n1.add_output(x1, "o");
  n2.add_output(x2, "o");

  auto r = check_equivalence(n1, n2);
  ASSERT_FALSE(r.equivalent);
  ASSERT_EQ(r.counterexample.size(), 2u);  // ceil(70 / 64) words
  EXPECT_TRUE(r.source_bit(69));           // only bit 69 distinguishes them

  // Replay the reported assignment single-lane: the outputs must really
  // differ under it.
  std::vector<std::uint64_t> words(70);
  for (int s = 0; s < 70; ++s) words[s] = r.source_bit(s) ? 1 : 0;
  auto o1 = simulate64(n1, words);
  auto o2 = simulate64(n2, words);
  EXPECT_NE(o1[r.failing_output] & 1, o2[r.failing_output] & 1);
}

}  // namespace
}  // namespace dagmap
