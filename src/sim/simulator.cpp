#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>

#include "netlist/assert.hpp"
#include "obs/obs.hpp"

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

/// 64-bit words each op runs over in one pass: one word per simulation
/// round, so a pass simulates up to this many rounds.
constexpr std::size_t kPassWords = 16;

enum class OpCode : std::uint8_t {
  Zero, One, Copy, Not, And, Or, AndN, OrN, Xor, Nand, Mux
};

/// One word-parallel op over the registers of a program step.  Register
/// 0 is the step's output slot, registers 1..16 its fanins in pin order,
/// and registers from kFirstTemp on are the op list's temporaries.
/// AndN is a & ~b, OrN is a | ~b, and Mux is a ? b : c.
struct Op {
  OpCode code;
  std::uint16_t dst, a, b, c;
};

constexpr std::uint16_t kFirstFanin = 1;
constexpr std::uint16_t kFirstTemp = kFirstFanin + TruthTable::kMaxVars;

/// The op list of one distinct node function.
struct Function {
  std::uint32_t first_op = 0;
  std::uint32_t num_ops = 0;
  std::uint16_t arity = 0;
};

/// Lowers a truth table to a straight-line op list: a Shannon expansion
/// on the highest variable each subfunction depends on.  Equal
/// subfunctions share one temporary, cofactors that do not differ drop
/// their variable, and constant or complementary cofactors fold the mux
/// into one AND/OR/ANDN/ORN/NOT/XOR op.
class FunctionCompiler {
 public:
  explicit FunctionCompiler(std::vector<Op>& ops) : ops_(ops) {}

  /// Appends the op list of `f`, which writes register 0; returns the
  /// number of temporaries it uses.
  std::uint16_t compile(const TruthTable& f) {
    memo_.clear();
    next_temp_ = kFirstTemp;
    std::size_t first = ops_.size();
    std::uint16_t root = build(
        std::vector<std::uint64_t>(f.words().begin(), f.words().end()),
        f.num_vars());
    // The root's op is the last one emitted; a projection needs a copy.
    if (root >= kFirstTemp && ops_.size() > first && ops_.back().dst == root)
      ops_.back().dst = 0;
    else
      ops_.push_back({OpCode::Copy, 0, root, 0, 0});
    return static_cast<std::uint16_t>(next_temp_ - kFirstTemp);
  }

 private:
  using Words = std::vector<std::uint64_t>;

  /// Cofactors of a table over `n` >= 1 variables on variable n-1.
  static std::pair<Words, Words> halves(const Words& t, unsigned n) {
    if (n > 6) {
      auto mid = t.begin() + static_cast<std::ptrdiff_t>(t.size() / 2);
      return {Words(t.begin(), mid), Words(mid, t.end())};
    }
    unsigned len = 1u << (n - 1);
    std::uint64_t mask = (std::uint64_t{1} << len) - 1;
    return {Words{t[0] & mask}, Words{(t[0] >> len) & mask}};
  }

  static std::uint64_t tail_mask(unsigned n) {
    return n >= 6 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << (std::size_t{1} << n)) - 1;
  }

  static bool is_zero(const Words& t) {
    return std::all_of(t.begin(), t.end(),
                       [](std::uint64_t w) { return w == 0; });
  }

  static bool is_ones(const Words& t, unsigned n) {
    return std::all_of(t.begin(), t.end(),
                       [&](std::uint64_t w) { return w == tail_mask(n); });
  }

  static bool complementary(const Words& a, const Words& b, unsigned n) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if ((~a[i] & tail_mask(n)) != b[i]) return false;
    return true;
  }

  std::uint16_t emit(OpCode code, std::uint16_t a = 0, std::uint16_t b = 0,
                     std::uint16_t c = 0) {
    DAGMAP_ASSERT_MSG(next_temp_ < 0xFFFF, "simulation op list too long");
    ops_.push_back({code, next_temp_, a, b, c});
    return next_temp_++;
  }

  std::uint16_t build(Words t, unsigned n) {
    while (n > 0) {
      auto [lo, hi] = halves(t, n);
      if (lo != hi) break;
      t = std::move(lo);
      --n;
    }
    if (n == 0) return emit(t[0] & 1 ? OpCode::One : OpCode::Zero);
    Words key = t;
    key.push_back(n);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;

    auto [lo, hi] = halves(t, n);
    unsigned m = n - 1;
    auto x = static_cast<std::uint16_t>(kFirstFanin + m);
    std::uint16_t r;
    if (is_zero(lo) && is_ones(hi, m)) r = x;
    else if (is_ones(lo, m) && is_zero(hi)) r = emit(OpCode::Not, x);
    else if (is_zero(lo)) r = emit(OpCode::And, x, build(hi, m));
    else if (is_ones(lo, m)) r = emit(OpCode::OrN, build(hi, m), x);
    else if (is_zero(hi)) r = emit(OpCode::AndN, build(lo, m), x);
    else if (is_ones(hi, m)) r = emit(OpCode::Or, x, build(lo, m));
    else if (complementary(lo, hi, m)) r = emit(OpCode::Xor, x, build(lo, m));
    else {
      std::uint16_t then_r = build(hi, m);
      std::uint16_t else_r = build(lo, m);
      r = emit(OpCode::Mux, x, then_r, else_r);
    }
    memo_.emplace(std::move(key), r);
    return r;
  }

  std::vector<Op>& ops_;
  std::map<Words, std::uint16_t> memo_;
  std::uint16_t next_temp_ = kFirstTemp;
};

template <std::size_t NW>
void run_ops(const Op* op, const Op* end, std::uint64_t* const* reg) {
  for (; op != end; ++op) {
    std::uint64_t* d = reg[op->dst];
    const std::uint64_t* a = reg[op->a];
    const std::uint64_t* b = reg[op->b];
    const std::uint64_t* c = reg[op->c];
    switch (op->code) {
      case OpCode::Zero:
        for (std::size_t w = 0; w < NW; ++w) d[w] = 0;
        break;
      case OpCode::One:
        for (std::size_t w = 0; w < NW; ++w) d[w] = ~std::uint64_t{0};
        break;
      case OpCode::Copy:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w];
        break;
      case OpCode::Not:
        for (std::size_t w = 0; w < NW; ++w) d[w] = ~a[w];
        break;
      case OpCode::And:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w] & b[w];
        break;
      case OpCode::Or:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w] | b[w];
        break;
      case OpCode::AndN:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w] & ~b[w];
        break;
      case OpCode::OrN:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w] | ~b[w];
        break;
      case OpCode::Xor:
        for (std::size_t w = 0; w < NW; ++w) d[w] = a[w] ^ b[w];
        break;
      case OpCode::Nand:
        for (std::size_t w = 0; w < NW; ++w) d[w] = ~(a[w] & b[w]);
        break;
      case OpCode::Mux:
        for (std::size_t w = 0; w < NW; ++w)
          d[w] = c[w] ^ ((b[w] ^ c[w]) & a[w]);
        break;
    }
  }
}

/// What one run of a program needs besides the program; owned by the
/// caller, so concurrent checks share nothing.
struct Scratch {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t*> reg;
};

/// A network compiled for simulation: the live nodes in id order (which
/// is topological — a node's fanins always have smaller ids), each a
/// step naming its function and the value slots of its output and
/// fanins.  A slot is released after its last reader, so the values in
/// flight are bounded by the widest cut of the order, not the node count.
class Program {
 public:
  explicit Program(const Network& net);

  std::size_t num_outputs() const { return output_slots_.size(); }

  /// Ops one pass executes (each over all its words).
  std::size_t ops_per_pass() const {
    std::size_t n = 0;
    for (const Step& s : steps_) n += functions_[s.function].num_ops;
    return n;
  }

  /// Simulates `nw` (1, 2, 4, 8 or 16) words per source: word w of
  /// source s is src[s * nw + w]; writes word w of output o to
  /// out[o * nw + w].
  void run(std::size_t nw, const std::uint64_t* src, std::uint64_t* out,
           Scratch& scratch) const {
    switch (nw) {
      case 1: return run_block<1>(src, out, scratch);
      case 2: return run_block<2>(src, out, scratch);
      case 4: return run_block<4>(src, out, scratch);
      case 8: return run_block<8>(src, out, scratch);
      case 16: return run_block<16>(src, out, scratch);
    }
    DAGMAP_ASSERT_MSG(false, "unsupported words per pass");
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// The fanin slots of the steps follow each other in fanin_slots_, so
  /// a step's fanins start where the previous step's end.
  struct Step {
    std::uint32_t function;
    std::uint32_t out;  ///< output slot
  };

  std::uint32_t function_of(const Network& net, NodeId id,
                            std::unordered_map<TruthTable, std::uint32_t,
                                               TruthTableHash>& by_table);
  std::uint32_t add_function(std::uint16_t arity,
                             std::initializer_list<Op> ops);

  template <std::size_t NW>
  void run_block(const std::uint64_t* src, std::uint64_t* out,
                 Scratch& scratch) const {
    scratch.values.resize((num_slots_ + std::size_t{num_temps_}) * NW);
    scratch.reg.resize(kFirstTemp + std::size_t{num_temps_});
    std::uint64_t* values = scratch.values.data();
    std::uint64_t** reg = scratch.reg.data();
    for (std::size_t t = 0; t < num_temps_; ++t)
      reg[kFirstTemp + t] = values + (num_slots_ + t) * NW;
    for (std::size_t s = 0; s < source_slots_.size(); ++s)
      if (source_slots_[s] != kNoSlot)
        std::copy_n(src + s * NW, NW, values + source_slots_[s] * NW);
    const std::uint32_t* fs = fanin_slots_.data();
    for (const Step& step : steps_) {
      const Function& f = functions_[step.function];
      reg[0] = values + std::size_t{step.out} * NW;
      for (std::size_t i = 0; i < f.arity; ++i)
        reg[kFirstFanin + i] = values + std::size_t{*fs++} * NW;
      const Op* ops = ops_.data() + f.first_op;
      run_ops<NW>(ops, ops + f.num_ops, reg);
    }
    for (std::size_t o = 0; o < output_slots_.size(); ++o)
      std::copy_n(values + std::size_t{output_slots_[o]} * NW, NW,
                  out + o * NW);
  }

  std::vector<Step> steps_;
  std::vector<std::uint32_t> fanin_slots_;
  std::vector<Op> ops_;
  std::vector<Function> functions_;
  std::vector<std::uint32_t> source_slots_;  ///< kNoSlot: never read
  std::vector<std::uint32_t> output_slots_;
  std::uint32_t num_slots_ = 0;
  std::uint16_t num_temps_ = 0;  ///< the most any function uses
};

// Built-in functions, in the order the constructor adds them.
enum : std::uint32_t { kFnZero, kFnOne, kFnInv, kFnNand2 };

std::uint32_t Program::add_function(std::uint16_t arity,
                                    std::initializer_list<Op> ops) {
  functions_.push_back({static_cast<std::uint32_t>(ops_.size()),
                        static_cast<std::uint32_t>(ops.size()), arity});
  ops_.insert(ops_.end(), ops);
  return static_cast<std::uint32_t>(functions_.size() - 1);
}

std::uint32_t Program::function_of(
    const Network& net, NodeId id,
    std::unordered_map<TruthTable, std::uint32_t, TruthTableHash>& by_table) {
  switch (net.kind(id)) {
    case NodeKind::Const0: return kFnZero;
    case NodeKind::Const1: return kFnOne;
    case NodeKind::Inv: return kFnInv;
    case NodeKind::Nand2: return kFnNand2;
    default: break;
  }
  const TruthTable& f = net.function(id);
  auto [it, fresh] = by_table.try_emplace(f, 0);
  if (fresh) {
    auto first = static_cast<std::uint32_t>(ops_.size());
    std::uint16_t temps = FunctionCompiler(ops_).compile(f);
    num_temps_ = std::max(num_temps_, temps);
    functions_.push_back(
        {first, static_cast<std::uint32_t>(ops_.size()) - first,
         static_cast<std::uint16_t>(f.num_vars())});
    it->second = static_cast<std::uint32_t>(functions_.size() - 1);
  }
  return it->second;
}

Program::Program(const Network& net) {
  add_function(0, {{OpCode::Zero, 0, 0, 0, 0}});
  add_function(0, {{OpCode::One, 0, 0, 0, 0}});
  add_function(1, {{OpCode::Not, 0, kFirstFanin, 0, 0}});
  add_function(2, {{OpCode::Nand, 0, kFirstFanin, kFirstFanin + 1, 0}});

  const std::size_t n = net.size();
  auto latch_d = [&](NodeId l) {
    std::span<const NodeId> fi = net.fanins(l);
    DAGMAP_ASSERT_MSG(!fi.empty(), "simulation of an unwired latch");
    return fi[0];
  };
  auto evaluated = [&](NodeId id) {
    NodeKind k = net.kind(id);
    return k != NodeKind::PrimaryInput && k != NodeKind::Latch;
  };

  // One reverse sweep finds the live nodes (the outputs' transitive
  // fanin) and each one's last reader: the first reader met going down
  // has the highest id.  last[id] is that reader's id, kForever for an
  // output, and kDead (no reader; 0 is nobody's reader id) otherwise.
  constexpr std::uint32_t kDead = 0, kForever = 0xFFFFFFFFu;
  std::vector<std::uint32_t> last(n, kDead);
  for (const Output& o : net.outputs()) last[o.node] = kForever;
  for (NodeId l : net.latches()) last[latch_d(l)] = kForever;
  std::size_t num_steps = 0, num_fanins = 0;
  for (NodeId id = static_cast<NodeId>(n); id-- > 0;) {
    if (last[id] == kDead || !evaluated(id)) continue;
    ++num_steps;
    for (NodeId f : net.fanins(id)) {
      if (last[f] == kDead) last[f] = id;
      ++num_fanins;
    }
  }
  steps_.reserve(num_steps);
  fanin_slots_.reserve(num_fanins);

  std::vector<std::uint32_t> slot(n, kNoSlot);
  std::vector<std::uint32_t> free_slots;
  auto allocate = [&] {
    if (free_slots.empty()) return num_slots_++;
    std::uint32_t s = free_slots.back();
    free_slots.pop_back();
    return s;
  };

  source_slots_.assign(net.num_inputs() + net.num_latches(), kNoSlot);
  for (std::size_t i = 0; i < source_slots_.size(); ++i) {
    NodeId id = i < net.num_inputs() ? net.inputs()[i]
                                     : net.latches()[i - net.num_inputs()];
    if (last[id] != kDead) source_slots_[i] = slot[id] = allocate();
  }

  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> by_table;
  for (NodeId id = 0; id < n; ++id) {
    // A node's own entry in last[] is only cleared by its readers, which
    // come later, so here it still tells whether the node is live.
    if (last[id] == kDead || !evaluated(id)) continue;
    std::span<const NodeId> fi = net.fanins(id);
    Step step{function_of(net, id, by_table), allocate()};
    slot[id] = step.out;
    for (NodeId f : fi) fanin_slots_.push_back(slot[f]);
    steps_.push_back(step);
    // The output slot is taken before the fanins' are released, so an
    // op never writes a slot it also reads.
    for (NodeId f : fi)
      if (last[f] == id) {
        free_slots.push_back(slot[f]);
        last[f] = kDead;  // a repeated fanin is released once
      }
  }
  for (const Output& o : net.outputs()) output_slots_.push_back(slot[o.node]);
  for (NodeId l : net.latches()) output_slots_.push_back(slot[latch_d(l)]);
}

/// Fills word w of every source with round first+w of `fill(round, s)`
/// for w < count, and zero beyond.
template <class Fill>
void fill_sources(std::vector<std::uint64_t>& src, std::size_t num_sources,
                  std::size_t nw, std::size_t count, Fill&& fill) {
  std::fill(src.begin(), src.end(), 0);
  for (std::size_t w = 0; w < count; ++w)
    for (std::size_t s = 0; s < num_sources; ++s) src[s * nw + w] = fill(w, s);
}

/// Words per pass for `rounds` rounds: kPassWords, or the power of two
/// that covers a shorter run.
std::size_t pass_words(std::size_t rounds) {
  return std::bit_ceil(std::clamp<std::size_t>(rounds, 1, kPassWords));
}

/// Word `s` of the exhaustive counter pattern at block base `base`:
/// lane L carries assignment base + L.
std::uint64_t counter_word(std::size_t base, std::size_t lanes,
                           std::size_t s) {
  std::uint64_t w = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane)
    if (((base + lane) >> s) & 1) w |= std::uint64_t{1} << lane;
  return w;
}

}  // namespace

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
  Program program(net);
  std::vector<std::uint64_t> out(program.num_outputs());
  Scratch scratch;
  program.run(1, source_words.data(), out.data(), scratch);
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

  std::optional<Program> pa, pb;
  {
    obs::Scope scope("verify.compile");
    pa.emplace(a);
    pb.emplace(b);
  }
  obs::counter_add("verify.program_ops",
                   pa->ops_per_pass() + pb->ops_per_pass());
  obs::Scope scope("verify.simulate");

  // Rounds of 64 vectors, in the order a one-word-per-round check would
  // run them: exhaustive mode enumerates all assignments (sources 0..5
  // cycle within a word, the rest come from the round's base), random
  // mode draws every source's word of a round from one seeded stream.
  std::size_t num_sources = a.num_inputs() + a.num_latches();
  bool exhaustive = num_sources <= exhaustive_limit;
  std::size_t total = exhaustive ? std::size_t{1} << num_sources : 0;
  std::size_t lanes = exhaustive ? std::min<std::size_t>(64, total) : 64;
  std::size_t rounds = exhaustive ? total / lanes : random_rounds;
  std::uint64_t lane_mask =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;

  std::size_t nw = pass_words(rounds);
  std::size_t num_outputs = pa->num_outputs();
  std::vector<std::uint64_t> src(num_sources * nw), oa(num_outputs * nw),
      ob(num_outputs * nw);
  Scratch scratch;
  Rng rng(seed);
  for (std::size_t first = 0; first < rounds; first += nw) {
    std::size_t count = std::min(nw, rounds - first);
    fill_sources(src, num_sources, nw, count, [&](std::size_t w,
                                                  std::size_t s) {
      return exhaustive ? counter_word((first + w) * lanes, lanes, s)
                        : rng.next();
    });
    pa->run(nw, src.data(), oa.data(), scratch);
    pb->run(nw, src.data(), ob.data(), scratch);
    // The first failing round, then its lowest output, then its lowest
    // lane: the counterexample a round-by-round check reports.
    for (std::size_t w = 0; w < count; ++w)
      for (std::size_t i = 0; i < num_outputs; ++i) {
        std::uint64_t diff = (oa[i * nw + w] ^ ob[i * nw + w]) & lane_mask;
        if (diff == 0) continue;
        unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
        std::vector<std::uint64_t> cex((num_sources + 63) / 64, 0);
        for (std::size_t s = 0; s < num_sources; ++s)
          if ((src[s * nw + w] >> lane) & 1)
            cex[s / 64] |= std::uint64_t{1} << (s % 64);
        return {false, std::move(cex), i};
      }
  }
  return {};
}

TruthTable output_truth_table(const Network& net, std::size_t output_index) {
  DAGMAP_ASSERT_MSG(net.num_latches() == 0, "combinational networks only");
  DAGMAP_ASSERT_MSG(net.num_inputs() <= TruthTable::kMaxVars,
                    "too many PIs for a truth table");
  DAGMAP_ASSERT(output_index < net.num_outputs());
  Program program(net);
  std::size_t nv = net.num_inputs();
  std::size_t total = std::size_t{1} << nv;
  std::size_t lanes = std::min<std::size_t>(64, total);
  std::size_t rounds = total / lanes;
  std::size_t nw = pass_words(rounds);
  std::vector<std::uint64_t> src(nv * nw), out(program.num_outputs() * nw);
  Scratch scratch;
  TruthTable t(static_cast<unsigned>(nv));
  for (std::size_t first = 0; first < rounds; first += nw) {
    std::size_t count = std::min(nw, rounds - first);
    fill_sources(src, nv, nw, count, [&](std::size_t w, std::size_t s) {
      return counter_word((first + w) * lanes, lanes, s);
    });
    program.run(nw, src.data(), out.data(), scratch);
    for (std::size_t w = 0; w < count; ++w)
      for (std::size_t lane = 0; lane < lanes; ++lane)
        if ((out[output_index * nw + w] >> lane) & 1)
          t.set_bit((first + w) * lanes + lane, true);
  }
  return t;
}

}  // namespace dagmap
