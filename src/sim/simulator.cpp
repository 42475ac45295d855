#include "sim/simulator.hpp"

#include <bit>
#include <cstdio>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

// xorshift128+ — fast deterministic vector source.
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

}  // namespace

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

std::uint64_t eval_logic_shannon(const TruthTable& f,
                                 std::span<const std::uint64_t> fanin_words,
                                 std::span<std::uint64_t> scratch) {
  std::size_t k = fanin_words.size();
  std::size_t n = std::size_t{1} << k;
  DAGMAP_ASSERT(f.num_minterms() >= n && scratch.size() >= n);
  // One all-ones / all-zeros word per minterm...
  std::span<const std::uint64_t> table = f.words();
  for (std::size_t m = 0; m < n; ++m)
    scratch[m] = std::uint64_t{0} - ((table[m >> 6] >> (m & 63)) & 1);
  // ...then fold the top variable away, 2^k - 1 word muxes in all:
  // minterm m + half differs from m exactly in variable v.
  for (std::size_t v = k; v-- > 0;) {
    std::size_t half = std::size_t{1} << v;
    std::uint64_t x = fanin_words[v];
    for (std::size_t m = 0; m < half; ++m)
      scratch[m] = (scratch[m] & ~x) | (scratch[m + half] & x);
  }
  return scratch[0];
}

std::uint64_t eval_logic(const TruthTable& f,
                         std::span<const std::uint64_t> fanin_words) {
  if (fanin_words.size() > kShannonMaxInputs)
    return eval_logic_lanes(f, fanin_words);
  std::uint64_t scratch[std::size_t{1} << kShannonMaxInputs];
  return eval_logic_shannon(f, fanin_words, scratch);
}

std::string EquivalenceResult::counterexample_hex() const {
  if (counterexample.empty()) return "0x0";
  std::string out = "0x";
  char buf[17];
  for (std::size_t w = counterexample.size(); w-- > 0;) {
    bool leading = out.size() == 2;
    std::snprintf(buf, sizeof buf, leading ? "%llx" : "%016llx",
                  static_cast<unsigned long long>(counterexample[w]));
    out += buf;
    if (w != 0) out += '_';
  }
  return out;
}

std::vector<std::uint64_t> simulate64(
    const Network& net, std::span<const std::uint64_t> source_words) {
  std::size_t num_sources = net.num_inputs() + net.num_latches();
  DAGMAP_ASSERT_MSG(source_words.size() == num_sources,
                    "simulate64: wrong number of source words");

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
      case NodeKind::Latch:
        break;  // already seeded
      case NodeKind::Const0: value[id] = 0; break;
      case NodeKind::Const1: value[id] = ~std::uint64_t{0}; break;
      case NodeKind::Inv: value[id] = ~value[fi[0]]; break;
      case NodeKind::Nand2:
        value[id] = ~(value[fi[0]] & value[fi[1]]);
        break;
      case NodeKind::Logic: {
        fanin_words.clear();
        for (NodeId f : fi) fanin_words.push_back(value[f]);
        value[id] = eval_logic(net.function(id), fanin_words);
        break;
      }
    }
  }

  std::vector<std::uint64_t> out;
  out.reserve(net.num_outputs() + net.num_latches());
  for (const Output& o : net.outputs()) out.push_back(value[o.node]);
  for (NodeId l : net.latches()) out.push_back(value[net.fanins(l)[0]]);
  return out;
}

EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    unsigned exhaustive_limit,
                                    unsigned random_rounds,
                                    std::uint64_t seed) {
  DAGMAP_ASSERT_MSG(a.num_inputs() == b.num_inputs() &&
                        a.num_outputs() == b.num_outputs() &&
                        a.num_latches() == b.num_latches(),
                    "interface mismatch");
  for (std::size_t i = 0; i < a.num_inputs(); ++i)
    DAGMAP_ASSERT_MSG(
        a.name(a.inputs()[i]) == b.name(b.inputs()[i]),
        "PI name mismatch at index " + std::to_string(i));
  for (std::size_t i = 0; i < a.num_outputs(); ++i)
    DAGMAP_ASSERT_MSG(a.outputs()[i].name == b.outputs()[i].name,
                      "PO name mismatch at index " + std::to_string(i));

  std::size_t num_sources = a.num_inputs() + a.num_latches();
  std::vector<std::uint64_t> words(num_sources, 0);

  auto compare_round = [&](std::uint64_t lane_mask) -> EquivalenceResult {
    auto oa = simulate64(a, words);
    auto ob = simulate64(b, words);
    for (std::size_t i = 0; i < oa.size(); ++i) {
      std::uint64_t diff = (oa[i] ^ ob[i]) & lane_mask;
      if (diff) {
        unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
        std::vector<std::uint64_t> cex((num_sources + 63) / 64, 0);
        for (std::size_t s = 0; s < num_sources; ++s)
          if ((words[s] >> lane) & 1) cex[s / 64] |= std::uint64_t{1} << (s % 64);
        return {false, std::move(cex), i};
      }
    }
    return {};
  };

  if (num_sources <= exhaustive_limit) {
    // Enumerate all assignments, 64 per round: sources 0..5 cycle within a
    // word (counter pattern), the rest come from the block index.
    std::size_t total = std::size_t{1} << num_sources;
    std::size_t lanes_per_block = std::min<std::size_t>(64, total);
    for (std::size_t base = 0; base < total; base += lanes_per_block) {
      // Counter pattern: lane L encodes assignment (base + L).
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
  DAGMAP_ASSERT_MSG(net.num_latches() == 0, "combinational networks only");
  DAGMAP_ASSERT_MSG(net.num_inputs() <= TruthTable::kMaxVars,
                    "too many PIs for a truth table");
  DAGMAP_ASSERT(output_index < net.num_outputs());
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
    auto out = simulate64(net, words);
    for (std::size_t lane = 0; lane < lanes_per_block; ++lane)
      if ((out[output_index] >> lane) & 1) t.set_bit(base + lane, true);
  }
  return t;
}

}  // namespace dagmap
