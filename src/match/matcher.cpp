#include "match/matcher.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "netlist/assert.hpp"

namespace dagmap {

const char* to_string(MatchClass mc) {
  switch (mc) {
    case MatchClass::Exact: return "exact";
    case MatchClass::Standard: return "standard";
    case MatchClass::Extended: return "extended";
  }
  return "?";
}

Match::Match(const MatchView& v)
    : gate(v.gate),
      pattern(v.pattern),
      pin_binding(v.pin_binding.begin(), v.pin_binding.end()),
      covered(v.covered.begin(), v.covered.end()) {}

void Match::assign(const MatchView& v) {
  gate = v.gate;
  pattern = v.pattern;
  pin_binding.assign(v.pin_binding.begin(), v.pin_binding.end());
  covered.assign(v.covered.begin(), v.covered.end());
  input_negate = 0;
  output_negate = false;
}

double match_arrival(const MatchView& m, std::span<const double> leaf_arrival) {
  double arrival = 0.0;
  for (std::size_t pin = 0; pin < m.pin_binding.size(); ++pin) {
    double a = leaf_arrival[m.pin_binding[pin]] + m.gate->pins[pin].delay();
    arrival = std::max(arrival, a);
  }
  return arrival;
}

namespace {

// Open-addressed set of 64-bit keys, emptied in O(1) by bumping a
// generation stamp.  Its capacity follows the largest set it has held
// (a pattern's node count, a root's match count), never the subject.
class StampedSet {
 public:
  /// Empties the set; `expected` insertions will not trigger a rehash.
  void clear(std::size_t expected) {
    if (++stamp_ == 0) {  // wrapped: forget every old generation
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    size_ = 0;
    if (2 * expected > keys_.size()) resize(2 * expected);
  }

  /// Inserts `key`; false when it was already present.  `where`
  /// receives the key's slot, for `erase`.
  bool insert(std::uint64_t key, std::size_t* where = nullptr) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    std::size_t mask = keys_.size() - 1;
    for (std::size_t i = slot(key);; i = (i + 1) & mask) {
      if (stamps_[i] != stamp_) {
        stamps_[i] = stamp_;
        keys_[i] = key;
        ++size_;
        if (where) *where = i;
        return true;
      }
      if (keys_[i] == key) return false;
    }
  }

  /// Removes the key at slot `where`, which must hold the newest key
  /// still in the set: no later key probed past it, so erasing in
  /// reverse insertion order keeps linear probing exact.
  void erase(std::size_t where) {
    stamps_[where] = 0;
    --size_;
  }

 private:
  std::size_t slot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void resize(std::size_t want) {
    std::size_t cap = std::bit_ceil(std::max<std::size_t>(want, 16));
    keys_.assign(cap, 0);
    stamps_.assign(cap, 0);
    stamp_ = 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  }

  void grow() {
    std::vector<std::uint64_t> live;
    live.reserve(size_);
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (stamps_[i] == stamp_) live.push_back(keys_[i]);
    resize(2 * keys_.size());
    size_ = 0;
    for (std::uint64_t key : live) insert(key);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t stamp_ = 0;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

// One agenda pop of the walk, as its undo log records it.
struct Popped {
  std::uint32_t p;
  NodeId s;
  bool bound;        // this pop bound p to s
  std::size_t slot;  // s's slot in the one-to-one set, when bound
};

// Per-thread scratch arena: every buffer the enumeration needs, reused
// across patterns, roots, and `for_each_match` calls so the steady state
// allocates nothing.  Holds no matcher state, so one thread may
// interleave calls against several matchers.
struct MatchScratch {
  std::vector<NodeId> bind;                            // pattern -> subject
  std::vector<std::pair<std::uint32_t, NodeId>> todo;  // walk agenda
  std::vector<Popped> log;                             // walk undo log
  StampedSet bound;                                    // one-to-one check
  std::vector<NodeId> pins;                            // MatchView arena
  std::vector<NodeId> covered;                         // MatchView arena
  StampedSet seen;                                     // per-root match dedup
};

MatchScratch& thread_scratch() {
  static thread_local MatchScratch scratch;
  return scratch;
}

// Bounded enumerator of all bindings of one pattern at one root; storage
// lives in the scratch arena.
//
// The walk pops (pattern node, subject node) pairs off a LIFO agenda.
// Only a NAND2 binding branches (two child orders), so only it recurses;
// leaf binds, checks of already-bound shared nodes and INV binds run in
// a loop and are undone from a log on the way back.  The order of pops,
// and so the order of complete bindings and the budget's step count, is
// that of a walk that recurses on every pop.
//
// Two screens refuse a binding (p, s) that no complete binding of the
// requested class contains: `admits(p, s, kind)` (the shape automaton,
// or the bare kind check with pruning off), and for one-to-one classes,
// s already bound to another pattern node.
template <typename Admits>
class Enumerator {
 public:
  /// `one_to_one` enforces distinct subject images (Standard, Exact).
  Enumerator(const Network& subject, const PatternGraph& pg,
             const std::vector<std::uint64_t>& sym, std::uint64_t budget,
             bool one_to_one, MatchScratch& scratch, const Admits& admits)
      : subject_(subject), nodes_(pg.nodes.data()), root_(pg.root),
        sym_(sym.data()), budget_(budget), admits_(admits),
        distinct_(one_to_one ? &scratch.bound : nullptr) {
    scratch.bind.assign(pg.nodes.size(), kNullNode);
    // The agenda holds at most one entry per pattern edge, plus the root;
    // the log at most every pop along the current path.
    std::size_t cap = 2 * pg.nodes.size() + 1;
    if (scratch.todo.size() < cap) scratch.todo.resize(cap);
    if (scratch.log.size() < cap) scratch.log.resize(cap);
    if (distinct_) distinct_->clear(pg.nodes.size());
    bind_ = scratch.bind.data();
    todo_ = scratch.todo.data();
    log_ = scratch.log.data();
  }

  /// Enumerates every complete binding; `on_complete` reads `bind()`.
  template <typename F>
  void run(NodeId root, const F& on_complete) {
    todo_[top_++] = {root_, root};
    recurse(on_complete);
  }

  const NodeId* bind() const { return bind_; }
  bool truncated() const { return budget_ == 0; }

 private:
  void push(std::uint32_t p, NodeId s) { todo_[top_++] = {p, s}; }

  // Binds p to s unless s is taken under a one-to-one class.
  bool take(Popped& pop) {
    if (distinct_ && !distinct_->insert(pop.s, &pop.slot)) return false;
    bind_[pop.p] = pop.s;
    pop.bound = true;
    return true;
  }

  void release(Popped& pop) {
    if (distinct_) distinct_->erase(pop.slot);
    bind_[pop.p] = kNullNode;
    pop.bound = false;
  }

  template <typename F>
  void recurse(const F& on_complete) {
    std::size_t mark = log_top_;
    while (budget_ != 0) {
      --budget_;
      if (top_ == 0) {
        on_complete();
        break;
      }
      auto [p, s] = todo_[--top_];
      Popped& pop = log_[log_top_++];
      pop.p = p;
      pop.s = s;
      pop.bound = false;
      if (bind_[p] != kNullNode) {
        if (bind_[p] == s) continue;
        break;
      }
      const PatternNode& pn = nodes_[p];
      if (pn.kind == PatternNode::Kind::Leaf) {
        if (!take(pop)) break;
        continue;
      }
      if (pn.kind == PatternNode::Kind::Inv) {
        if (!admits_(p, s, NodeKind::Inv) || !take(pop)) break;
        push(static_cast<std::uint32_t>(pn.fanin0), subject_.fanins(s)[0]);
        continue;
      }
      if (!admits_(p, s, NodeKind::Nand2) || !take(pop)) break;
      std::span<const NodeId> fi = subject_.fanins(s);
      NodeId s0 = fi[0];
      NodeId s1 = fi[1];
      auto p0 = static_cast<std::uint32_t>(pn.fanin0);
      auto p1 = static_cast<std::uint32_t>(pn.fanin1);
      push(p0, s0);
      push(p1, s1);
      recurse(on_complete);
      top_ -= 2;
      // The swapped pairing explores genuinely new matches only when the
      // children are not symmetric (or the subject children differ —
      // matching x,x to symmetric children twice is also redundant).
      if (sym_[p0] != sym_[p1] && s0 != s1) {
        push(p0, s1);
        push(p1, s0);
        recurse(on_complete);
        top_ -= 2;
      }
      release(pop);
      break;
    }
    // Undo this frame's pops, newest first: release the bindings made
    // here (an INV also drops its child, back on top by now) and put
    // each pair back on the agenda.
    while (log_top_ > mark) {
      Popped& pop = log_[--log_top_];
      if (pop.bound) {
        if (nodes_[pop.p].kind == PatternNode::Kind::Inv) --top_;
        release(pop);
      }
      push(pop.p, pop.s);
    }
  }

  const Network& subject_;
  const PatternNode* nodes_;
  std::uint32_t root_;
  const std::uint64_t* sym_;
  std::uint64_t budget_;
  const Admits& admits_;
  StampedSet* distinct_;
  NodeId* bind_;
  std::pair<std::uint32_t, NodeId>* todo_;
  Popped* log_;
  std::size_t top_ = 0;
  std::size_t log_top_ = 0;
};

}  // namespace

Matcher::Matcher(const GateLibrary& lib, const Network& subject,
                 MatcherOptions options, const PatternIndex* index)
    : lib_(lib), subject_(subject), options_(options),
      fanout_counts_(subject.fanout_counts()),
      owned_index_(index ? PatternIndex{} : PatternIndex::build(lib)),
      index_(index ? index : &owned_index_) {
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "matcher requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(index_->matches_shape(lib_),
                    "pattern index does not belong to this library");
  DAGMAP_ASSERT_MSG(index_->has_shapes(),
                    "pattern index has no shape table");
  if (!options_.use_signature_index) return;

  // The shape automaton, bottom-up: a node roots the leaf shape, plus
  // INV(c) for each shape c its fanin roots (INV nodes), plus NAND2(a, b)
  // for a rooted by one fanin and b by the other (NAND2 nodes).  The
  // work per node follows the fanins' set bits through the parent
  // lists, not the number of shapes in the library.
  const ShapeTable& t = index_->shapes;
  shape_words_ = (t.size() + 63) / 64;
  shape_sets_.assign(subject.size() * shape_words_, 0);
  auto row = [&](NodeId n) { return &shape_sets_[n * shape_words_]; };
  auto for_each_shape = [&](const std::uint64_t* set, auto&& fn) {
    for (std::size_t w = 0; w < shape_words_; ++w)
      for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
  };
  // Id order is a topological order of the internal nodes: a NAND2 or
  // INV is only ever appended after its fanins, and never rewired.
  for (NodeId n = 0; n < subject.size(); ++n) {
    std::uint64_t* set = row(n);
    set[0] |= 1;  // ShapeTable::kLeaf
    NodeKind kind = subject.kind(n);
    if (kind == NodeKind::Inv) {
      for_each_shape(row(subject.fanins(n)[0]), [&](std::uint32_t c) {
        std::uint32_t p = t.inv_parent[c];
        if (p != ShapeTable::kNone) set[p / 64] |= std::uint64_t{1} << (p % 64);
      });
    } else if (kind == NodeKind::Nand2) {
      std::span<const NodeId> fi = subject.fanins(n);
      const std::uint64_t* other = row(fi[1]);
      for_each_shape(row(fi[0]), [&](std::uint32_t c) {
        for (std::uint32_t i = t.nand_begin[c]; i < t.nand_begin[c + 1]; ++i) {
          auto [sibling, p] = t.nand_parent[i];
          if ((other[sibling / 64] >> (sibling % 64)) & 1)
            set[p / 64] |= std::uint64_t{1} << (p % 64);
        }
      });
    }
  }
}

void Matcher::for_each_match(NodeId root, MatchClass mc,
                             const MatchCallback& cb) const {
  NodeKind rk = subject_.kind(root);
  DAGMAP_ASSERT_MSG(rk == NodeKind::Nand2 || rk == NodeKind::Inv,
                    "matching roots must be internal subject nodes");
  bool inv = rk == NodeKind::Inv;
  const std::vector<PatternEntry>& candidates =
      inv ? index_->inv_rooted : index_->nand_rooted;
  const std::vector<std::uint32_t>& root_shapes =
      inv ? index_->inv_root_shape : index_->nand_root_shape;
  bool prune = !shape_sets_.empty();

  MatchScratch& sc = thread_scratch();
  // Deduplicate complete matches (symmetric patterns can reach the same
  // binding through different child orders).
  sc.seen.clear(0);
  MatchStats local;

  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    if (prune && !can_root(root, root_shapes[ci])) {
      ++local.pruned;
      continue;
    }
    const PatternEntry& ref = candidates[ci];
    const Gate* gate = &lib_.gates()[ref.gate_index];
    const PatternGraph& pg = gate->patterns[ref.pattern_index];
    ++local.attempts;
    // A shape has its pattern node's kind, so with pruning on the
    // shape test also checks the subject node's kind.
    auto admits = [&](std::uint32_t p, NodeId s, NodeKind kind) {
      return prune ? can_root(s, ref.shape[p]) : subject_.kind(s) == kind;
    };
    // One-to-one (Standard and Exact; Definitions 1/2) is enforced as
    // the walk binds.
    Enumerator en(subject_, pg, ref.sym_hash, kEnumerationBudget,
                  mc != MatchClass::Extended, sc, admits);
    en.run(root, [&] {
      const NodeId* bind = en.bind();

      // Exact-match fanout condition (Definition 2 condition 3): every
      // covered non-root pattern node's subject image must have exactly
      // the pattern node's out-degree.
      if (mc == MatchClass::Exact) {
        for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
          if (p == pg.root || pg.nodes[p].kind == PatternNode::Kind::Leaf)
            continue;
          if (fanout_counts_[bind[p]] != ref.out_deg[p]) return;
        }
      }

      sc.pins.assign(gate->num_inputs(), kNullNode);
      sc.covered.clear();
      for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
        const PatternNode& pn = pg.nodes[p];
        if (pn.kind == PatternNode::Kind::Leaf)
          sc.pins[pn.pin] = bind[p];
        else
          sc.covered.push_back(bind[p]);
      }
      for (NodeId leaf : sc.pins) DAGMAP_ASSERT(leaf != kNullNode);

      std::uint64_t key = std::hash<const void*>{}(gate);
      for (NodeId leaf : sc.pins)
        key = key * 0x100000001B3ull ^ (leaf + 1);
      if (!sc.seen.insert(key)) return;

      cb(MatchView(gate, &pg, sc.pins, sc.covered));
    });
    if (en.truncated()) ++local.truncations;
  }

  attempts_.fetch_add(local.attempts, std::memory_order_relaxed);
  pruned_.fetch_add(local.pruned, std::memory_order_relaxed);
  truncations_.fetch_add(local.truncations, std::memory_order_relaxed);
}

std::vector<Match> Matcher::matches_at(NodeId root, MatchClass mc) const {
  std::vector<Match> out;
  out.reserve(last_match_count_.load(std::memory_order_relaxed));
  for_each_match(root, mc, [&](const MatchView& m) { out.emplace_back(m); });
  last_match_count_.store(static_cast<std::uint32_t>(out.size()),
                          std::memory_order_relaxed);
  return out;
}

MatchStats Matcher::stats() const {
  MatchStats s;
  s.attempts = attempts();
  s.pruned = pruned();
  s.truncations = truncations();
  return s;
}

}  // namespace dagmap
