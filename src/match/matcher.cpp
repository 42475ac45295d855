#include "match/matcher.hpp"

#include <algorithm>
#include <bit>
#include <memory>
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

double match_arrival(const MatchView& m, std::span<const double> leaf_arrival) {
  double arrival = 0.0;
  for (std::size_t pin = 0; pin < m.pin_binding.size(); ++pin) {
    double a = leaf_arrival[m.pin_binding[pin]] + m.gate->pins[pin].delay();
    arrival = std::max(arrival, a);
  }
  return arrival;
}

namespace {

// Open-addressed table of 64-bit keys with a 32-bit value each, emptied
// in O(1) by bumping a generation stamp.  Its capacity follows the
// largest table it has held (a pattern's node count, a root's match or
// sub-binding list count), never the subject.
class StampedTable {
 public:
  /// Empties the table; `expected` insertions will not trigger a rehash.
  void clear(std::size_t expected) {
    if (++stamp_ == 0) {  // wrapped: forget every old generation
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    size_ = 0;
    if (2 * expected > keys_.size()) resize(2 * expected);
  }

  /// Inserts `key` with `value`; false when it was already present.
  /// `where` receives the key's slot, for `erase`.
  bool insert(std::uint64_t key, std::size_t* where = nullptr,
              std::uint32_t value = 0) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    std::size_t mask = keys_.size() - 1;
    for (std::size_t i = slot(key);; i = (i + 1) & mask) {
      if (stamps_[i] != stamp_) {
        stamps_[i] = stamp_;
        keys_[i] = key;
        values_[i] = value;
        ++size_;
        if (where) *where = i;
        return true;
      }
      if (keys_[i] == key) return false;
    }
  }

  /// The value stored with `key`, or null when it is absent.
  const std::uint32_t* find(std::uint64_t key) const {
    if (keys_.empty()) return nullptr;
    std::size_t mask = keys_.size() - 1;
    for (std::size_t i = slot(key);; i = (i + 1) & mask) {
      if (stamps_[i] != stamp_) return nullptr;
      if (keys_[i] == key) return &values_[i];
    }
  }

  /// Removes the key at slot `where`, which must hold the newest key
  /// still in the table: no later key probed past it, so erasing in
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
    values_.assign(cap, 0);
    stamps_.assign(cap, 0);
    stamp_ = 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  }

  void grow() {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
    live.reserve(size_);
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (stamps_[i] == stamp_) live.emplace_back(keys_[i], values_[i]);
    resize(2 * keys_.size());
    size_ = 0;
    for (auto [key, value] : live) insert(key, nullptr, value);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
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

// A list of sub-bindings in the memo arena: `count` tuples of `width`
// subject nodes from offset `nodes`, and under one-to-one classes one
// overlap mask per tuple from offset `masks`.  `truncated` marks a list
// the budget cut short (a sound prefix), or one built from such a list.
struct SubList {
  std::size_t nodes = 0;
  std::size_t masks = 0;
  std::uint32_t count = 0;
  std::uint32_t width = 0;
  bool truncated = false;
};

// A grow-only array of a trivially copyable type: `extend` hands out
// uninitialized room at the end, `truncate` takes back what went unused.
// Unlike std::vector::resize it writes nothing it hands out, which
// matters for the many small lists of small libraries.
template <typename T>
class GrowBuffer {
 public:
  const T* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  void clear() { size_ = 0; }
  void truncate(std::size_t size) { size_ = size; }

  T* extend(std::size_t n) {
    if (size_ + n > capacity_) {
      capacity_ = std::max({2 * capacity_, size_ + n, std::size_t{256}});
      auto grown = std::make_unique_for_overwrite<T[]>(capacity_);
      std::copy_n(data_.get(), size_, grown.get());
      data_ = std::move(grown);
    }
    size_ += n;
    return data_.get() + size_ - n;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// Per-thread scratch arena: every buffer the enumeration needs, reused
// across patterns, roots, and `for_each_match` calls so the steady state
// allocates nothing.  Holds no matcher state, so one thread may
// interleave calls against several matchers.
struct MatchScratch {
  std::vector<NodeId> bind;                            // pattern -> subject
  std::vector<std::pair<std::uint32_t, NodeId>> todo;  // walk agenda
  std::vector<Popped> log;                             // walk undo log
  std::vector<std::size_t> slots;                      // per pattern node
  StampedTable bound;                                  // one-to-one check
  std::vector<NodeId> pins;                            // MatchView arena
  std::vector<NodeId> covered;                         // MatchView arena
  StampedTable seen;                                   // per-root match dedup
  StampedTable memo;     // (walk shape, subject node) -> index in `lists`
  std::vector<SubList> lists;                          // per-root memo
  GrowBuffer<NodeId> arena;                            // sub-binding tuples
  GrowBuffer<std::uint64_t> masks;                     // one per tuple
};

MatchScratch& thread_scratch() {
  static thread_local MatchScratch scratch;
  return scratch;
}

std::uint64_t node_bit(NodeId s) { return std::uint64_t{1} << (s % 64); }

// True when tuples a and b share no subject node.  The masks have bit
// s % 64 set for every member s, so disjoint masks settle most pairs.
bool disjoint(const NodeId* a, std::uint32_t wa, std::uint64_t ma,
              const NodeId* b, std::uint32_t wb, std::uint64_t mb) {
  if ((ma & mb) == 0) return true;
  for (std::uint32_t i = 0; i < wa; ++i)
    for (std::uint32_t j = 0; j < wb; ++j)
      if (a[i] == b[j]) return false;
  return true;
}

// The per-root memo of sub-binding lists (DESIGN.md §7): L(w, s), every
// binding of walk shape w at subject node s, in the order the
// backtracking walk completes them.  Built on demand, bottom-up through
// the walk shape, and kept until the next root.
//   * leaf: {s};
//   * INV(c): s followed by each tuple of L(c, fanin);
//   * NAND2(c0, c1) at fanins (f0, f1): for each b1 in L(c1, f1), for
//     each b0 in L(c0, f0), the tuple (s, b0, b1); then, when the swap
//     is allowed and f0 != f1, the same with L(c1, f0) outside and
//     L(c0, f1) inside.  c1 is the walk's outer loop because its LIFO
//     agenda pops c1 before c0;
//   * a node the screen refuses gets the empty list.
// Under one-to-one classes a tuple whose parts share a node is dropped
// (a node never occurs in its own fanin cone, so s cannot repeat).
template <typename Admits>
class SubBindingMemo {
 public:
  SubBindingMemo(const Network& subject, const WalkTable& walks,
                 bool one_to_one, MatchScratch& scratch, const Admits& admits)
      : subject_(subject), defs_(walks.defs.data()), one_to_one_(one_to_one),
        sc_(scratch), admits_(admits) {
    sc_.memo.clear(0);
    sc_.lists.assign(1, SubList{});  // list 0: the empty list
    sc_.arena.clear();
    sc_.masks.clear();
  }

  /// Index of L(w, s) for an internal walk shape w; every tuple built
  /// or scanned takes one unit of `budget`.
  std::uint32_t get(std::uint32_t w, NodeId s, std::uint64_t& budget) {
    const WalkTable::Def& d = defs_[w];
    if (!admits_(d.shape, s, d.kind == PatternNode::Kind::Inv
                                 ? NodeKind::Inv : NodeKind::Nand2))
      return 0;
    std::uint64_t key = (std::uint64_t{w} << 32) | s;
    if (const std::uint32_t* id = sc_.memo.find(key)) {
      ++hits;
      return *id;
    }
    SubList l = build(d, s, budget);
    auto id = static_cast<std::uint32_t>(sc_.lists.size());
    sc_.lists.push_back(l);
    sc_.memo.insert(key, nullptr, id);
    ++lists;
    return id;
  }

  const SubList& list(std::uint32_t id) const { return sc_.lists[id]; }

  const NodeId* tuple(const SubList& l, std::uint32_t i) const {
    return sc_.arena.data() + l.nodes + std::size_t{i} * l.width;
  }

  std::uint64_t lists = 0;  ///< lists built
  std::uint64_t hits = 0;   ///< lookups served from the memo

 private:
  // L(c, f) for a child walk shape.  A leaf's list is the one tuple {f},
  // held in the side itself rather than in the arena or the memo.
  struct Side {
    SubList list;
    NodeId leaf = kNullNode;
  };

  Side side(std::uint32_t c, NodeId f, std::uint64_t& budget) {
    if (c == WalkTable::kLeaf) return {SubList{0, 0, 1, 1, false}, f};
    return {sc_.lists[get(c, f, budget)], kNullNode};
  }

  const NodeId* nodes_of(const Side& x, std::uint32_t i) const {
    return x.leaf != kNullNode ? &x.leaf
                               : tuple(x.list, i);
  }

  std::uint64_t mask_of(const Side& x, std::uint32_t i) const {
    return x.leaf != kNullNode ? node_bit(x.leaf)
                               : sc_.masks[x.list.masks + i];
  }

  SubList build(const WalkTable::Def& d, NodeId s, std::uint64_t& budget) {
    std::span<const NodeId> fi = subject_.fanins(s);
    // Pairs of (outer c1 side, inner c0 side); an INV has one side.
    std::pair<Side, Side> parts[2];
    int num_parts = 0;
    bool inv = d.kind == PatternNode::Kind::Inv;
    if (inv) {
      parts[num_parts++].first = side(d.c0, fi[0], budget);
    } else {
      auto add = [&](NodeId f0, NodeId f1) {
        Side outer = side(d.c1, f1, budget);
        if (outer.list.count == 0) return;
        Side inner = side(d.c0, f0, budget);
        if (inner.list.count != 0) parts[num_parts++] = {outer, inner};
      };
      add(fi[0], fi[1]);
      if (d.swap && fi[0] != fi[1]) add(fi[1], fi[0]);
    }

    // Room for every pairing, capped by the budget; the arena is cut
    // back to the tuples kept.
    SubList out{sc_.arena.size(), sc_.masks.size(), 0, d.width, false};
    std::size_t room = 0;
    for (int k = 0; k < num_parts; ++k) {
      const auto& [outer, inner] = parts[k];
      out.truncated |= outer.list.truncated || inner.list.truncated;
      room += std::size_t{outer.list.count} * (inv ? 1 : inner.list.count);
    }
    if (room > budget) {
      room = budget;
      out.truncated = true;
    }
    budget -= room;
    NodeId* dst = sc_.arena.extend(room * d.width);
    std::uint64_t* mdst = one_to_one_ ? sc_.masks.extend(room) : nullptr;
    std::uint32_t w0 = inv ? 0 : defs_[d.c0].width;
    std::uint32_t w1 = inv ? defs_[d.c0].width : defs_[d.c1].width;
    for (int k = 0; k < num_parts && room != 0; ++k) {
      const auto& [outer, inner] = parts[k];
      for (std::uint32_t i = 0; i < outer.list.count && room != 0; ++i) {
        const NodeId* b1 = nodes_of(outer, i);
        std::uint64_t m1 = one_to_one_ ? mask_of(outer, i) : 0;
        std::uint32_t inner_count = inv ? 1 : inner.list.count;
        for (std::uint32_t j = 0; j < inner_count && room != 0; ++j, --room) {
          const NodeId* b0 = inv ? nullptr : nodes_of(inner, j);
          std::uint64_t m0 = 0;
          if (one_to_one_ && !inv) {
            m0 = mask_of(inner, j);
            if (!disjoint(b1, w1, m1, b0, w0, m0)) continue;
          }
          *dst++ = s;
          dst = std::copy_n(b0, w0, dst);
          dst = std::copy_n(b1, w1, dst);
          if (one_to_one_) *mdst++ = node_bit(s) | m0 | m1;
          ++out.count;
        }
      }
    }
    sc_.arena.truncate(out.nodes + std::size_t{out.count} * d.width);
    if (one_to_one_) sc_.masks.truncate(out.masks + out.count);
    return out;
  }

  const Network& subject_;
  const WalkTable::Def* defs_;
  bool one_to_one_;
  MatchScratch& sc_;
  const Admits& admits_;
};

// Bounded enumerator of all bindings of one DAG pattern at one root
// (tree patterns are read straight off the root's memoized list);
// storage lives in the scratch arena.
//
// The walk pops (pattern node, subject node) pairs off a LIFO agenda
// over the pattern's shared part.  A maximal private node
// (PatternEntry::walk), a private subtree hanging off that part, is
// bound whole: the pop iterates the node's memoized sub-binding list and
// binds each tuple in one step.  On the shared part only a NAND2 binding
// branches (two child orders); leaf binds, checks of already-bound
// shared nodes and INV binds run in a loop and are undone from a log on
// the way back.  The order of complete bindings is that of a walk that
// recurses on every pop of every node.
//
// Two screens refuse a binding (p, s) that no complete binding of the
// requested class contains: `admits(shape, s, kind)` (the shape
// automaton, or the bare kind check with pruning off), and for
// one-to-one classes, s already bound to another pattern node.
template <typename Admits>
class Enumerator {
 public:
  /// `one_to_one` enforces distinct subject images (Standard, Exact).
  Enumerator(const Network& subject, const PatternGraph& pg,
             const PatternEntry& ref, std::uint64_t budget, bool one_to_one,
             MatchScratch& scratch, const Admits& admits,
             SubBindingMemo<Admits>& memo)
      : subject_(subject), nodes_(pg.nodes.data()), root_(pg.root),
        ref_(ref), budget_(budget), admits_(admits), memo_(memo),
        distinct_(one_to_one ? &scratch.bound : nullptr) {
    scratch.bind.assign(pg.nodes.size(), kNullNode);
    // The agenda holds at most one entry per pattern edge, plus the root;
    // the log at most every pop along the current path.
    std::size_t cap = 2 * pg.nodes.size() + 1;
    if (scratch.todo.size() < cap) scratch.todo.resize(cap);
    if (scratch.log.size() < cap) scratch.log.resize(cap);
    if (scratch.slots.size() < pg.nodes.size())
      scratch.slots.resize(pg.nodes.size());
    if (distinct_) distinct_->clear(pg.nodes.size());
    bind_ = scratch.bind.data();
    todo_ = scratch.todo.data();
    log_ = scratch.log.data();
    slots_ = scratch.slots.data();
  }

  /// Enumerates every complete binding; `on_complete` reads `bind()`.
  template <typename F>
  void run(NodeId root, const F& on_complete) {
    todo_[top_++] = {root_, root};
    recurse(on_complete);
  }

  const NodeId* bind() const { return bind_; }
  bool truncated() const { return budget_ == 0 || truncated_; }

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

  // Pops maximal private node p at s: binds each memoized tuple of its
  // walk shape over p's subtree and carries on with the agenda.  Under
  // one-to-one classes a tuple must avoid the nodes bound so far.
  template <typename F>
  void bind_private(std::uint32_t p, NodeId s, const F& on_complete) {
    SubList l = memo_.list(memo_.get(ref_.walk[p], s, budget_));
    truncated_ |= l.truncated;
    const std::uint32_t* members = ref_.walk_nodes.data() + ref_.walk_first[p];
    StampedTable* check = distinct_;
    for (std::uint32_t i = 0; i < l.count && budget_ != 0; ++i) {
      --budget_;
      // The tuple is re-read each time: deeper pops may grow the arena.
      const NodeId* t = memo_.tuple(l, i);
      std::uint32_t k = 0;
      for (; k < l.width; ++k) {
        if (check && !check->insert(t[k], &slots_[members[k]])) break;
        bind_[members[k]] = t[k];
      }
      if (k == l.width) recurse(on_complete);
      while (k-- > 0) {
        if (check) check->erase(slots_[members[k]]);
        bind_[members[k]] = kNullNode;
      }
    }
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
      if (ref_.walk[p] != WalkTable::kNone) {
        bind_private(p, s, on_complete);
        break;
      }
      if (pn.kind == PatternNode::Kind::Leaf) {
        if (!take(pop)) break;
        continue;
      }
      if (pn.kind == PatternNode::Kind::Inv) {
        if (!admits_(ref_.shape[p], s, NodeKind::Inv) || !take(pop)) break;
        push(static_cast<std::uint32_t>(pn.fanin0), subject_.fanins(s)[0]);
        continue;
      }
      if (!admits_(ref_.shape[p], s, NodeKind::Nand2) || !take(pop)) break;
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
      if (ref_.sym_hash[p0] != ref_.sym_hash[p1] && s0 != s1) {
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
  const PatternEntry& ref_;
  std::uint64_t budget_;
  bool truncated_ = false;
  const Admits& admits_;
  SubBindingMemo<Admits>& memo_;
  StampedTable* distinct_;
  NodeId* bind_;
  std::pair<std::uint32_t, NodeId>* todo_;
  Popped* log_;
  std::size_t* slots_;
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
  // A shape has its pattern node's kind, so with pruning on the shape
  // test also checks the subject node's kind.
  auto admits = [&](std::uint32_t shape, NodeId s, NodeKind kind) {
    return prune ? can_root(s, shape) : subject_.kind(s) == kind;
  };
  // One-to-one (Standard and Exact; Definitions 1/2) is enforced as
  // sub-bindings are combined and as the walk binds.
  bool one_to_one = mc != MatchClass::Extended;
  SubBindingMemo memo(subject_, index_->walks, one_to_one, sc, admits);

  // A complete binding, read through the pattern's gather from `src`
  // (the root tuple minus the root, or the walk's binding array).
  auto emit = [&](const PatternEntry& ref, const Gate* gate,
                  const PatternGraph& pg, const NodeId* src) {
    const std::uint32_t* g = ref.gather.data();
    std::size_t num_pins = gate->num_inputs();
    std::size_t num_covered = ref.gather.size() - num_pins;
    if (sc.pins.size() < num_pins) sc.pins.resize(num_pins);
    if (sc.covered.size() < num_covered) sc.covered.resize(num_covered);
    std::span<NodeId> pins(sc.pins.data(), num_pins);
    std::span<NodeId> covered(sc.covered.data(), num_covered);
    for (std::size_t i = 0; i < num_pins; ++i) {
      pins[i] = g[i] != PatternEntry::kRootSlot ? src[g[i]] : kNullNode;
      DAGMAP_ASSERT(pins[i] != kNullNode);
    }
    for (std::size_t k = 0; k < num_covered; ++k) {
      std::uint32_t at = g[num_pins + k];
      covered[k] = at != PatternEntry::kRootSlot ? src[at] : root;
    }

    // Exact-match fanout condition (Definition 2 condition 3): every
    // covered non-root pattern node's subject image must have exactly
    // the pattern node's out-degree.
    if (mc == MatchClass::Exact) {
      std::size_t k = 0;
      for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
        if (pg.nodes[p].kind == PatternNode::Kind::Leaf) continue;
        if (p != pg.root && fanout_counts_[covered[k]] != ref.out_deg[p])
          return;
        ++k;
      }
    }

    std::uint64_t key = std::hash<const void*>{}(gate);
    for (NodeId leaf : pins)
      key = key * 0x100000001B3ull ^ (leaf + 1);
    if (!sc.seen.insert(key)) return;

    cb(MatchView(gate, &pg, pins, covered));
  };

  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    if (prune && !can_root(root, root_shapes[ci])) {
      ++local.pruned;
      continue;
    }
    const PatternEntry& ref = candidates[ci];
    const Gate* gate = &lib_.gates()[ref.gate_index];
    const PatternGraph& pg = gate->patterns[ref.pattern_index];
    ++local.attempts;
    std::uint32_t w = ref.walk[pg.root];
    if (w == WalkTable::kNone) {
      // A DAG pattern: walk its shared part.
      Enumerator en(subject_, pg, ref, kEnumerationBudget, one_to_one, sc,
                    admits, memo);
      en.run(root, [&] { emit(ref, gate, pg, en.bind()); });
      if (en.truncated()) ++local.truncations;
      continue;
    }
    // A tree pattern: its bindings are the root's list.  An INV root is
    // not materialized: its tuples are the root followed by its child's,
    // so the child's list is read in place.  (The candidate screen, or
    // the bucket with pruning off, has checked the root's kind.)
    std::uint64_t budget = kEnumerationBudget;
    const WalkTable::Def& d = index_->walks.defs[w];
    bool peel = d.kind == PatternNode::Kind::Inv && d.c0 != WalkTable::kLeaf;
    SubList l = memo.list(peel ? memo.get(d.c0, subject_.fanins(root)[0],
                                          budget)
                               : memo.get(w, root, budget));
    std::size_t skip = peel ? 0 : 1;
    for (std::uint32_t i = 0; i < l.count && budget != 0; ++i) {
      --budget;
      emit(ref, gate, pg, memo.tuple(l, i) + skip);
    }
    if (l.truncated || budget == 0) ++local.truncations;
  }

  attempts_.fetch_add(local.attempts, std::memory_order_relaxed);
  memo_lists_.fetch_add(memo.lists, std::memory_order_relaxed);
  memo_hits_.fetch_add(memo.hits, std::memory_order_relaxed);
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
  s.memo_lists = memo_lists_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dagmap
