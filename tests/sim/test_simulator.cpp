// Tests for bit-parallel simulation and equivalence checking.
//
// The compiled simulator is pinned against `reference`: the node-by-node
// interpreter it replaced (one 64-bit round at a time, every Logic node
// by a 64-lane truth-table lookup), kept here as the oracle.  Verdicts,
// failing outputs, counterexamples and truth tables must agree exactly.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "netlist/assert.hpp"

namespace dagmap {
namespace {

namespace reference {

struct Rng {
  std::uint64_t s0, s1;
  explicit Rng(std::uint64_t seed)
      : s0(seed ^ 0x9E3779B97F4A7C15ull), s1(seed * 2685821657736338717ull + 1) {}
  std::uint64_t next() {
    std::uint64_t x = s0, y = s1;
    s0 = y;
    x ^= x << 23;
    s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1 + y;
  }
};

std::uint64_t eval_logic_lanes(const TruthTable& f,
                               std::span<const std::uint64_t> fanin_words) {
  std::uint64_t out = 0;
  for (unsigned lane = 0; lane < 64; ++lane) {
    std::size_t m = 0;
    for (std::size_t i = 0; i < fanin_words.size(); ++i)
      if ((fanin_words[i] >> lane) & 1) m |= std::size_t{1} << i;
    if (f.bit(m)) out |= std::uint64_t{1} << lane;
  }
  return out;
}

std::vector<std::uint64_t> simulate64(
    const Network& net, std::span<const std::uint64_t> source_words) {
  std::vector<std::uint64_t> value(net.size(), 0);
  for (std::size_t i = 0; i < net.num_inputs(); ++i)
    value[net.inputs()[i]] = source_words[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    value[net.latches()[i]] = source_words[net.num_inputs() + i];
  std::vector<std::uint64_t> fanin_words;
  for (NodeId id : net.topo_order()) {
    std::span<const NodeId> fi = net.fanins(id);
    switch (net.kind(id)) {
      case NodeKind::PrimaryInput:
      case NodeKind::Latch: break;
      case NodeKind::Const0: value[id] = 0; break;
      case NodeKind::Const1: value[id] = ~std::uint64_t{0}; break;
      case NodeKind::Inv: value[id] = ~value[fi[0]]; break;
      case NodeKind::Nand2: value[id] = ~(value[fi[0]] & value[fi[1]]); break;
      case NodeKind::Logic:
        fanin_words.clear();
        for (NodeId f : fi) fanin_words.push_back(value[f]);
        value[id] = eval_logic_lanes(net.function(id), fanin_words);
        break;
    }
  }
  std::vector<std::uint64_t> out;
  for (const Output& o : net.outputs()) out.push_back(value[o.node]);
  for (NodeId l : net.latches()) out.push_back(value[net.fanins(l)[0]]);
  return out;
}

EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    unsigned exhaustive_limit = 14,
                                    unsigned random_rounds = 64,
                                    std::uint64_t seed = 0x5EEDF00Dull) {
  std::size_t num_sources = a.num_inputs() + a.num_latches();
  std::vector<std::uint64_t> words(num_sources, 0);
  auto compare_round = [&](std::uint64_t lane_mask) -> EquivalenceResult {
    auto oa = reference::simulate64(a, words);
    auto ob = reference::simulate64(b, words);
    for (std::size_t i = 0; i < oa.size(); ++i) {
      std::uint64_t diff = (oa[i] ^ ob[i]) & lane_mask;
      if (diff) {
        unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
        std::vector<std::uint64_t> cex((num_sources + 63) / 64, 0);
        for (std::size_t s = 0; s < num_sources; ++s)
          if ((words[s] >> lane) & 1)
            cex[s / 64] |= std::uint64_t{1} << (s % 64);
        return {false, std::move(cex), i};
      }
    }
    return {};
  };
  if (num_sources <= exhaustive_limit) {
    std::size_t total = std::size_t{1} << num_sources;
    std::size_t lanes_per_block = std::min<std::size_t>(64, total);
    for (std::size_t base = 0; base < total; base += lanes_per_block) {
      for (std::size_t s = 0; s < num_sources; ++s) {
        std::uint64_t w = 0;
        for (std::size_t lane = 0; lane < lanes_per_block; ++lane)
          if (((base + lane) >> s) & 1) w |= std::uint64_t{1} << lane;
        words[s] = w;
      }
      std::uint64_t lane_mask =
          lanes_per_block == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << lanes_per_block) - 1;
      EquivalenceResult r = compare_round(lane_mask);
      if (!r.equivalent) return r;
    }
    return {};
  }
  Rng rng(seed);
  for (unsigned round = 0; round < random_rounds; ++round) {
    for (auto& w : words) w = rng.next();
    EquivalenceResult r = compare_round(~std::uint64_t{0});
    if (!r.equivalent) return r;
  }
  return {};
}

TruthTable output_truth_table(const Network& net, std::size_t output_index) {
  unsigned nv = static_cast<unsigned>(net.num_inputs());
  TruthTable t(nv);
  std::size_t total = std::size_t{1} << nv;
  std::vector<std::uint64_t> words(nv);
  std::size_t lanes_per_block = std::min<std::size_t>(64, total);
  for (std::size_t base = 0; base < total; base += lanes_per_block) {
    for (unsigned s = 0; s < nv; ++s) {
      std::uint64_t w = 0;
      for (std::size_t lane = 0; lane < lanes_per_block; ++lane)
        if (((base + lane) >> s) & 1) w |= std::uint64_t{1} << lane;
      words[s] = w;
    }
    auto out = reference::simulate64(net, words);
    for (std::size_t lane = 0; lane < lanes_per_block; ++lane)
      if ((out[output_index] >> lane) & 1) t.set_bit(base + lane, true);
  }
  return t;
}

}  // namespace reference

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
  // A single Logic node's compiled op list against the per-lane lookup,
  // on random tables and random fanin words of every width the simulator
  // accepts.
  std::mt19937_64 rng(0x51A770);
  for (unsigned k = 0; k <= TruthTable::kMaxVars; ++k) {
    for (int trial = 0; trial < (k <= 10 ? 12 : 3); ++trial) {
      std::size_t words = k <= 6 ? 1 : std::size_t{1} << (k - 6);
      std::vector<std::uint64_t> bits(words);
      for (std::uint64_t& w : bits) w = rng();
      if (k < 6) bits[0] &= (std::uint64_t{1} << (std::size_t{1} << k)) - 1;
      TruthTable f = TruthTable::from_words(k, bits);
      Network n("one");
      std::vector<NodeId> pis;
      for (unsigned i = 0; i < k; ++i)
        pis.push_back(n.add_input("i" + std::to_string(i)));
      n.add_output(n.add_logic(pis, f), "o");
      std::vector<std::uint64_t> in(k);
      for (std::uint64_t& w : in) w = rng();
      EXPECT_EQ(simulate64(n, in)[0], reference::eval_logic_lanes(f, in))
          << k << " inputs, trial " << trial;
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

// ---- the compiled simulator against the reference interpreter ----------

/// A table of `k` variables: random bits, or one of the shapes the op
/// compiler folds (constants, literals, parity, AND of literals).
TruthTable random_table(std::mt19937_64& rng, unsigned k) {
  std::size_t words = k <= 6 ? 1 : std::size_t{1} << (k - 6);
  TruthTable t(k);
  switch (rng() % 6) {
    case 0: return TruthTable::constant(rng() & 1, k);
    case 1: {
      if (k == 0) return TruthTable::constant(true, 0);
      TruthTable v = TruthTable::variable(static_cast<unsigned>(rng() % k), k);
      return rng() & 1 ? ~v : v;
    }
    case 2:
      for (std::size_t m = 0; m < t.num_minterms(); ++m)
        t.set_bit(m, std::popcount(m) & 1);
      return t;
    case 3: {
      TruthTable acc = TruthTable::constant(true, k);
      for (unsigned v = 0; v < k; ++v)
        if (rng() & 1) {
          TruthTable x = TruthTable::variable(v, k);
          acc = acc & (rng() & 1 ? ~x : x);
        }
      return acc;
    }
    default: {
      std::vector<std::uint64_t> bits(words);
      for (std::uint64_t& w : bits) w = rng();
      if (k < 6) bits[0] &= (std::uint64_t{1} << (std::size_t{1} << k)) - 1;
      return TruthTable::from_words(k, bits);
    }
  }
}

/// A random network with `inputs` PIs and `latches` latches: constants,
/// inverters, NAND2s and Logic nodes of 0-16 inputs (repeated fanins
/// included), latch D inputs anywhere, outputs on any node.  With
/// `flip_node` set, the first Logic node from that index on gets a
/// changed table; the rest of the network is the same for every value
/// of it.
Network random_network(std::uint64_t seed, unsigned inputs, unsigned latches,
                       unsigned nodes, unsigned flip_node = ~0u) {
  std::mt19937_64 rng(seed);
  std::mt19937_64 flip_rng(seed ^ 0xF11Full);
  bool flipped = false;
  Network n("rand");
  std::vector<NodeId> pool;
  for (unsigned i = 0; i < inputs; ++i)
    pool.push_back(n.add_input("i" + std::to_string(i)));
  std::vector<NodeId> ls;
  for (unsigned l = 0; l < latches; ++l)
    pool.push_back(ls.emplace_back(
        n.add_latch_placeholder("l" + std::to_string(l))));
  if (pool.empty()) pool.push_back(n.add_constant(true));
  auto pick = [&] {
    std::size_t window = std::min<std::size_t>(pool.size(), 24);
    return pool[pool.size() - 1 - rng() % window];
  };
  for (unsigned j = 0; j < nodes; ++j) {
    unsigned kind = rng() % 10;
    NodeId g;
    if (kind == 0) {
      g = n.add_constant(rng() & 1);
    } else if (kind == 1) {
      g = n.add_inv(pick());
    } else if (kind <= 3) {
      NodeId x = pick();
      g = n.add_nand2(x, pick());
    } else {
      unsigned k = rng() % 12 == 0 ? 14 + static_cast<unsigned>(rng() % 3)
                                   : static_cast<unsigned>(rng() % 7);
      std::vector<NodeId> fanins;
      for (unsigned i = 0; i < k; ++i) fanins.push_back(pick());
      TruthTable f = random_table(rng, k);
      if (j >= flip_node && !flipped) {
        // One minterm, or (every other seed) the whole table.
        std::size_t m = flip_rng() % f.num_minterms();
        f.set_bit(m, !f.bit(m));
        if (seed & 1) f = ~f;
        flipped = true;
      }
      g = n.add_logic(std::move(fanins), std::move(f));
    }
    pool.push_back(g);
  }
  for (NodeId l : ls) n.connect_latch(l, pool[rng() % pool.size()]);
  unsigned outputs = 4 + static_cast<unsigned>(rng() % 6);
  for (unsigned o = 0; o < outputs; ++o)
    n.add_output(o < 4 ? pool[pool.size() - 1 - o] : pool[rng() % pool.size()],
                 "o" + std::to_string(o));
  return n;
}

void expect_same_check(const Network& a, const Network& b,
                       const std::string& what) {
  EquivalenceResult got = check_equivalence(a, b);
  EquivalenceResult want = reference::check_equivalence(a, b);
  EXPECT_EQ(got.equivalent, want.equivalent) << what;
  EXPECT_EQ(got.failing_output, want.failing_output) << what;
  EXPECT_EQ(got.counterexample_hex(), want.counterexample_hex()) << what;
}

TEST(CompiledSimulator, RandomNetworksMatchTheReference) {
  // Exhaustive mode (at most 14 sources) and random mode (more than 14,
  // and more than 64 so counterexamples span words), each network
  // against itself and against a copy with one flipped table bit.
  struct Shape {
    unsigned inputs, latches, nodes;
  };
  const Shape shapes[] = {{0, 0, 16},  {3, 0, 20},  {6, 2, 40},
                          {11, 3, 60}, {20, 4, 80}, {70, 3, 120}};
  int inequivalent = 0;
  for (const Shape& sh : shapes)
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Network a = random_network(seed, sh.inputs, sh.latches, sh.nodes);
      std::string what = std::to_string(sh.inputs) + "+" +
                         std::to_string(sh.latches) + " sources, seed " +
                         std::to_string(seed);
      expect_same_check(a, a, what + " (self)");
      // Near the outputs, so that most flips reach one.
      unsigned flip = sh.nodes - 12 + static_cast<unsigned>(seed % 6);
      Network b = random_network(seed, sh.inputs, sh.latches, sh.nodes, flip);
      expect_same_check(a, b, what + " (flip " + std::to_string(flip) + ")");
      inequivalent += !reference::check_equivalence(a, b).equivalent;
    }
  EXPECT_GT(inequivalent, 10);  // the flips reach the outputs often enough
}

TEST(CompiledSimulator, OutputTruthTablesMatchTheReference) {
  for (unsigned inputs : {0u, 1u, 5u, 6u, 7u, 12u, 16u})
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Network n = random_network(seed * 31 + inputs, inputs, 0, 40);
      for (std::size_t o = 0; o < n.num_outputs(); ++o)
        EXPECT_EQ(output_truth_table(n, o).to_hex(),
                  reference::output_truth_table(n, o).to_hex())
            << inputs << " inputs, seed " << seed << ", output " << o;
    }
}

/// Copy of `net` (PIs, latches, constants and Logic nodes, as
/// `MappedNetlist::to_network` makes them) where node `target` gets
/// `function` and fanins `fanins` (in the copy's ids) instead of its own.
Network rebuild(const Network& net, NodeId target, const TruthTable& function,
                std::vector<NodeId> fanins) {
  Network out(net.name());
  std::vector<NodeId> map(net.size(), kNullNode);
  for (NodeId id = 0; id < net.size(); ++id) {
    switch (net.kind(id)) {
      case NodeKind::PrimaryInput: map[id] = out.add_input(net.name(id)); break;
      case NodeKind::Latch: map[id] = out.add_latch_placeholder(); break;
      case NodeKind::Const0:
      case NodeKind::Const1:
        map[id] = out.add_constant(net.kind(id) == NodeKind::Const1);
        break;
      case NodeKind::Logic: {
        if (id == target) {
          map[id] = out.add_logic(fanins, function);
          break;
        }
        std::vector<NodeId> fi;
        for (NodeId f : net.fanins(id)) fi.push_back(map[f]);
        map[id] = out.add_logic(std::move(fi), net.function(id));
        break;
      }
      default: ADD_FAILURE() << "unexpected node kind";
    }
  }
  for (NodeId l : net.latches()) out.connect_latch(map[l], map[net.fanins(l)[0]]);
  for (const Output& o : net.outputs()) out.add_output(map[o.node], o.name);
  return out;
}

TEST(CompiledSimulator, CorruptedNetlistsMatchTheReference) {
  // Mapped netlists corrupted three ways — a gate swapped for another of
  // the same arity, a rewired fanin, an inverted output — checked
  // against their subjects in exhaustive mode (8 sources), random mode
  // (16) and random mode past one counterexample word (80).
  const Network subjects[] = {
      tech_decompose(make_array_multiplier(4)),
      tech_decompose(make_array_multiplier(8)),
      make_random_subject_graph(3000, 80, 12, 7),
  };
  GateLibrary lib = make_44_library(3);
  int caught = 0;
  for (const Network& sg : subjects) {
    Network mapped = dag_map(sg, lib).netlist.to_network();
    expect_same_check(sg, mapped, sg.name() + " as mapped");
    std::vector<NodeId> gates;
    for (NodeId id = 0; id < mapped.size(); ++id)
      if (mapped.kind(id) == NodeKind::Logic && mapped.fanins(id).size() >= 2)
        gates.push_back(id);
    ASSERT_GE(gates.size(), 8u);
    std::mt19937_64 rng(mapped.size());
    for (int trial = 0; trial < 6; ++trial) {
      NodeId g = gates[rng() % gates.size()];
      std::vector<NodeId> fi(mapped.fanins(g).begin(), mapped.fanins(g).end());
      const TruthTable& f = mapped.function(g);
      // Swap: the first other gate function of the same arity.
      TruthTable other = ~f;
      for (NodeId h : gates)
        if (mapped.fanins(h).size() == fi.size() && !(mapped.function(h) == f)) {
          other = mapped.function(h);
          break;
        }
      Network swapped = rebuild(mapped, g, other, fi);
      // Rewire: one pin to an earlier node (ids below g are all placed).
      std::vector<NodeId> rewired = fi;
      NodeId to = static_cast<NodeId>(rng() % g);
      rewired[rng() % rewired.size()] = to == rewired[0] ? (to + 1) % g : to;
      Network rewire = rebuild(mapped, g, f, rewired);
      // Invert: one output through a fresh inverter.
      Network inverted = rebuild(mapped, kNullNode, f, {});
      std::size_t o = rng() % inverted.num_outputs();
      inverted.redirect_output(
          o, inverted.add_inv(inverted.outputs()[o].node));
      for (const auto& [name, bad] :
           {std::pair<const char*, const Network*>{"swap", &swapped},
            {"rewire", &rewire},
            {"invert", &inverted}}) {
        std::string what = sg.name() + " " + name + " at node " +
                           std::to_string(g) + ", trial " +
                           std::to_string(trial);
        expect_same_check(sg, *bad, what);
        caught += !check_equivalence(sg, *bad).equivalent;
      }
    }
  }
  EXPECT_GE(caught, 18);  // every inverted output, and most of the rest
}

}  // namespace
}  // namespace dagmap
