// The per-root sub-binding memo (match/matcher.cpp, DESIGN.md §7) must
// enumerate exactly what the backtracking walk it replaced enumerated,
// in the same order.  The reference below is that walk, kept here as a
// plain recursive test oracle: every agenda pop recurses, NAND2 nodes
// try both child orders unless their children's symmetry hashes agree,
// one-to-one classes refuse a subject node bound elsewhere, and the
// shape automaton screens each binding.  `for_each_match` must be
// sequence-equal to it — same gate, pattern, pins and covered nodes —
// at every root the reference finishes within its step budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

namespace dagmap {
namespace {

struct Seen {
  const Gate* gate;
  const PatternGraph* pattern;
  std::vector<NodeId> pins;
  std::vector<NodeId> covered;
  bool operator==(const Seen&) const = default;
};

void PrintTo(const Seen& m, std::ostream* os) {
  *os << m.gate->name << " pins";
  for (NodeId n : m.pins) *os << ' ' << n;
  *os << " covered";
  for (NodeId n : m.covered) *os << ' ' << n;
}

std::vector<Seen> sequence(const Matcher& m, NodeId root, MatchClass mc) {
  std::vector<Seen> out;
  m.for_each_match(root, mc, [&](const MatchView& v) {
    out.push_back({v.gate, v.pattern,
                   {v.pin_binding.begin(), v.pin_binding.end()},
                   {v.covered.begin(), v.covered.end()}});
  });
  return out;
}

// The walk of one pattern at one root, with the per-pop step budget.
class ReferenceWalk {
 public:
  ReferenceWalk(const Network& sg, const Matcher& screen,
                const PatternGraph& pg, const PatternEntry& e,
                bool one_to_one, std::function<void(const NodeId*)> done)
      : sg_(sg), screen_(screen), pg_(pg), e_(e), one_to_one_(one_to_one),
        done_(std::move(done)), bind_(pg.nodes.size(), kNullNode) {}

  void run(NodeId root) {
    todo_.push_back({pg_.root, root});
    step();
  }

  bool truncated() const { return budget_ == 0; }

 private:
  void step() {
    if (budget_ == 0) return;
    --budget_;
    if (todo_.empty()) {
      done_(bind_.data());
      return;
    }
    auto [p, s] = todo_.back();
    todo_.pop_back();
    visit(p, s);
    todo_.push_back({p, s});
  }

  void visit(std::uint32_t p, NodeId s) {
    if (bind_[p] != kNullNode) {
      if (bind_[p] == s) step();
      return;
    }
    if (one_to_one_ &&
        std::find(bind_.begin(), bind_.end(), s) != bind_.end())
      return;
    const PatternNode& pn = pg_.nodes[p];
    if (pn.kind != PatternNode::Kind::Leaf && !screen_.can_root(s, e_.shape[p]))
      return;
    bind_[p] = s;
    if (pn.kind == PatternNode::Kind::Leaf) {
      step();
    } else if (pn.kind == PatternNode::Kind::Inv) {
      todo_.push_back(
          {static_cast<std::uint32_t>(pn.fanin0), sg_.fanins(s)[0]});
      step();
      todo_.pop_back();
    } else {
      auto p0 = static_cast<std::uint32_t>(pn.fanin0);
      auto p1 = static_cast<std::uint32_t>(pn.fanin1);
      NodeId s0 = sg_.fanins(s)[0];
      NodeId s1 = sg_.fanins(s)[1];
      pair(p0, s0, p1, s1);
      if (e_.sym_hash[p0] != e_.sym_hash[p1] && s0 != s1) pair(p0, s1, p1, s0);
    }
    bind_[p] = kNullNode;
  }

  void pair(std::uint32_t p0, NodeId s0, std::uint32_t p1, NodeId s1) {
    todo_.push_back({p0, s0});
    todo_.push_back({p1, s1});
    step();
    todo_.pop_back();
    todo_.pop_back();
  }

  const Network& sg_;
  const Matcher& screen_;
  const PatternGraph& pg_;
  const PatternEntry& e_;
  bool one_to_one_;
  std::function<void(const NodeId*)> done_;
  std::vector<NodeId> bind_;
  std::vector<std::pair<std::uint32_t, NodeId>> todo_;
  std::uint64_t budget_ = Matcher::kEnumerationBudget;
};

// Every deduplicated match at `root`, in candidate order; false when
// some walk ran out of budget.
bool reference_sequence(const GateLibrary& lib, const PatternIndex& idx,
                        const Network& sg, const Matcher& screen, NodeId root,
                        MatchClass mc, std::vector<Seen>& out) {
  std::span<const std::uint32_t> fanout = sg.fanout_counts();
  const auto& bucket =
      sg.kind(root) == NodeKind::Inv ? idx.inv_rooted : idx.nand_rooted;
  std::set<std::pair<const Gate*, std::vector<NodeId>>> seen;
  bool complete = true;
  for (const PatternEntry& e : bucket) {
    const Gate& gate = lib.gates()[e.gate_index];
    const PatternGraph& pg = gate.patterns[e.pattern_index];
    ReferenceWalk walk(sg, screen, pg, e, mc != MatchClass::Extended,
                       [&](const NodeId* bind) {
      if (mc == MatchClass::Exact)
        for (std::uint32_t p = 0; p < pg.nodes.size(); ++p)
          if (p != pg.root && pg.nodes[p].kind != PatternNode::Kind::Leaf &&
              fanout[bind[p]] != e.out_deg[p])
            return;
      Seen m{&gate, &pg, std::vector<NodeId>(gate.num_inputs(), kNullNode), {}};
      for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
        if (pg.nodes[p].kind == PatternNode::Kind::Leaf)
          m.pins[pg.nodes[p].pin] = bind[p];
        else
          m.covered.push_back(bind[p]);
      }
      if (seen.emplace(&gate, m.pins).second) out.push_back(std::move(m));
    });
    walk.run(root);
    complete &= !walk.truncated();
  }
  return complete;
}

void expect_reference_sequence(const GateLibrary& lib, const Network& sg,
                               const std::string& what) {
  PatternIndex idx = PatternIndex::build(lib);
  Matcher m(lib, sg, {}, &idx);
  std::size_t roots = 0, matches = 0;
  for (MatchClass mc :
       {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
    for (NodeId n = 0; n < sg.size(); ++n) {
      if (sg.is_source(n)) continue;
      std::vector<Seen> want;
      if (!reference_sequence(lib, idx, sg, m, n, mc, want)) continue;
      ASSERT_EQ(sequence(m, n, mc), want)
          << what << " node " << n << " class " << to_string(mc);
      ++roots;
      matches += want.size();
    }
  }
  EXPECT_GT(roots, 0u) << what;
  EXPECT_GT(matches, 0u) << what;
}

TEST(SubBindingMemo, SequenceEqualsReferenceWalk) {
  std::vector<std::pair<std::string, GateLibrary>> libs;
  libs.emplace_back("44-3", make_44_library(3));
  libs.emplace_back("lib2", make_lib2_library());
  for (std::uint64_t seed : {3u, 17u, 29u})
    libs.emplace_back("random" + std::to_string(seed),
                      make_random_library(seed, 12, 4, /*multi_level=*/true));
  for (const auto& [name, lib] : libs) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      Network sg = tech_decompose(
          make_random_dag(4 + static_cast<unsigned>(s % 4), 14 + 4 * s, 2,
                          s * 977 + 5));
      expect_reference_sequence(lib, sg,
                                name + " subject " + std::to_string(s));
    }
    expect_reference_sequence(lib, tech_decompose(make_array_multiplier(3)),
                              name + " mult3");
  }
}

TEST(SubBindingMemo, TreePatternsAreOneLookupAtTheRoot) {
  // Every 44-3 pattern is a tree, so its root is one memoized list.
  // lib2 keeps a few DAG patterns, walked over their shared part.
  auto dag_patterns = [](const GateLibrary& lib) {
    PatternIndex idx = PatternIndex::build(lib);
    std::size_t dags = 0;
    for (const auto* bucket : {&idx.inv_rooted, &idx.nand_rooted})
      for (const PatternEntry& e : *bucket) {
        const PatternGraph& p =
            lib.gates()[e.gate_index].patterns[e.pattern_index];
        if (e.walk[p.root] == WalkTable::kNone) ++dags;
      }
    return dags;
  };
  EXPECT_EQ(dag_patterns(make_44_library(3)), 0u);
  EXPECT_EQ(dag_patterns(make_lib2_library()), 3u);
}

TEST(SubBindingMemo, SubBindingsAreSharedWithinARoot) {
  // On a multiplier, the 44-3 patterns at one root share most of their
  // sub-bindings: lookups served from the memo outnumber lists built.
  Network sg = tech_decompose(make_array_multiplier(4));
  GateLibrary lib = make_44_library(3);
  Matcher m(lib, sg);
  for (NodeId n = 0; n < sg.size(); ++n)
    if (!sg.is_source(n)) m.matches_at(n, MatchClass::Standard);
  MatchStats st = m.stats();
  EXPECT_GT(st.memo_lists, 0u);
  EXPECT_GT(st.memo_hits, st.memo_lists);
  EXPECT_EQ(st.truncations, 0u);
}

}  // namespace
}  // namespace dagmap
