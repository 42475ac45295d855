// Shape-automaton soundness (match/pattern_index.hpp, DESIGN.md §7).
//
// The automaton may only skip work that could not produce a match, and
// selection breaks ties within epsilon by enumeration order, so the
// pruned enumeration must equal the unpruned one *as a sequence*: same
// matches, same order, at every root, for every match class.  Checked on
// the rich 44-3 library, lib2 and random libraries (shared-leaf and
// XOR-like DAG patterns) over fuzz subjects, plus direct checks of the
// per-node shape sets and of the derived table after an artifact load.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "io/genlib.hpp"
#include "libcache/compiled_library.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

namespace dagmap {
namespace {

// Everything a callback can observe of one match, in enumeration order.
struct Seen {
  const Gate* gate;
  const PatternGraph* pattern;
  std::vector<NodeId> pins;
  std::vector<NodeId> covered;
  bool operator==(const Seen&) const = default;
};

std::vector<Seen> sequence(const Matcher& m, NodeId root, MatchClass mc) {
  std::vector<Seen> out;
  m.for_each_match(root, mc, [&](const MatchView& v) {
    out.push_back({v.gate, v.pattern,
                   {v.pin_binding.begin(), v.pin_binding.end()},
                   {v.covered.begin(), v.covered.end()}});
  });
  return out;
}

// Root shape of the first pattern of gate `name`.
std::uint32_t root_shape_of(const PatternIndex& idx, const GateLibrary& lib,
                            const std::string& name) {
  for (const auto* bucket : {&idx.inv_rooted, &idx.nand_rooted})
    for (const PatternEntry& e : *bucket) {
      const Gate& g = lib.gates()[e.gate_index];
      if (g.name == name && e.pattern_index == 0)
        return e.shape[g.patterns[0].root];
    }
  ADD_FAILURE() << "no gate " << name;
  return ShapeTable::kNone;
}

void expect_sequence_equal(const GateLibrary& lib, const Network& sg,
                           const std::string& what) {
  Matcher pruned(lib, sg, {.use_signature_index = true});
  Matcher unpruned(lib, sg, {.use_signature_index = false});
  for (MatchClass mc :
       {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
    for (NodeId n = 0; n < sg.size(); ++n) {
      if (sg.is_source(n)) continue;
      std::uint64_t cut_before = unpruned.truncations();
      std::vector<Seen> without = sequence(unpruned, n, mc);
      std::vector<Seen> with = sequence(pruned, n, mc);
      // A walk the unpruned matcher cut off may legitimately finish
      // once pruning saves it steps; every other root must agree.
      if (unpruned.truncations() == cut_before) {
        ASSERT_EQ(with, without) << what << " node " << n << " class "
                                 << to_string(mc);
      }
    }
  }
  EXPECT_LE(pruned.attempts(), unpruned.attempts()) << what;
  EXPECT_LE(pruned.truncations(), unpruned.truncations()) << what;
  EXPECT_EQ(unpruned.pruned(), 0u) << what;
}

TEST(ShapeAutomaton, PrunedEnumerationIsSequenceEqual) {
  std::vector<std::pair<std::string, GateLibrary>> libs;
  libs.emplace_back("44-3", make_44_library(3));
  libs.emplace_back("lib2", make_lib2_library());
  for (std::uint64_t seed : {3u, 17u, 29u})
    libs.emplace_back("random" + std::to_string(seed),
                      make_random_library(seed, 12, 4, /*multi_level=*/true));
  // The random libraries must exercise DAG patterns (shared leaves).
  std::size_t dag_patterns = 0;
  for (std::size_t i = 2; i < libs.size(); ++i)
    for (const Gate& g : libs[i].second.gates())
      for (const PatternGraph& p : g.patterns)
        for (std::uint32_t d : p.out_degrees())
          if (d > 1) {
            ++dag_patterns;
            break;
          }
  EXPECT_GT(dag_patterns, 0u);
  for (const auto& [name, lib] : libs) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      Network sg = tech_decompose(
          make_random_dag(4 + static_cast<unsigned>(s % 4), 14 + 4 * s, 2,
                          s * 977 + 5));
      expect_sequence_equal(lib, sg, name + " subject " + std::to_string(s));
    }
  }
  // A structured subject too: reconvergent carries and XORs.
  expect_sequence_equal(make_lib2_library(),
                        tech_decompose(make_array_multiplier(3)), "mult3");
}

TEST(ShapeAutomaton, SubjectChainShapeSets) {
  // x -> inv -> nand(inv, y): which shapes each node can root.
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1 0 1 0\n"
      "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1 0 1 0\n"
      "GATE ornot 2 O=a+!b;\n PIN * UNKNOWN 1 999 1 0 1 0\n"
      "GATE or2 2 O=a+b;\n PIN * NONINV 1 999 1 0 1 0\n");
  PatternIndex idx = PatternIndex::build(lib);
  Network n("chain");
  NodeId x = n.add_input("x");
  NodeId y = n.add_input("y");
  NodeId i = n.add_inv(x);
  NodeId g = n.add_nand2(i, y);
  n.add_output(g, "o");
  Matcher m(lib, n, {}, &idx);

  std::uint32_t inv = root_shape_of(idx, lib, "inv");
  std::uint32_t nand = root_shape_of(idx, lib, "nand2");
  std::uint32_t ornot = root_shape_of(idx, lib, "ornot");  // NAND(INV, _)
  std::uint32_t or2 = root_shape_of(idx, lib, "or2");      // NAND(INV, INV)
  for (NodeId v : {x, y, i, g}) EXPECT_TRUE(m.can_root(v, ShapeTable::kLeaf));
  EXPECT_FALSE(m.can_root(x, inv));
  EXPECT_TRUE(m.can_root(i, inv));
  EXPECT_FALSE(m.can_root(i, nand));
  EXPECT_TRUE(m.can_root(g, nand));
  EXPECT_TRUE(m.can_root(g, ornot));
  EXPECT_FALSE(m.can_root(g, or2));
  EXPECT_FALSE(m.can_root(g, inv));
}

TEST(ShapeAutomaton, ScreenIsNecessaryOnMultiplier) {
  // Every pattern the unpruned walk matches at a node has its root shape
  // in that node's set, under every match class.
  Network subject = tech_decompose(make_array_multiplier(4));
  GateLibrary lib = make_lib2_library();
  PatternIndex idx = PatternIndex::build(lib);
  std::map<const PatternGraph*, std::uint32_t> root_shape;
  for (const auto* bucket : {&idx.inv_rooted, &idx.nand_rooted})
    for (const PatternEntry& e : *bucket) {
      const PatternGraph& p =
          lib.gates()[e.gate_index].patterns[e.pattern_index];
      root_shape[&p] = e.shape[p.root];
    }
  Matcher pruned(lib, subject, {}, &idx);
  Matcher unpruned(lib, subject, {.use_signature_index = false}, &idx);
  for (MatchClass mc :
       {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (subject.is_source(n)) continue;
      unpruned.for_each_match(n, mc, [&](const MatchView& v) {
        EXPECT_TRUE(pruned.can_root(n, root_shape.at(v.pattern)))
            << v.gate->name << " at node " << n << " (" << to_string(mc)
            << ")";
      });
    }
  }
}

TEST(ShapeAutomaton, PrunesDeepPatternAtShallowRoot) {
  // A NAND of two inputs roots no shape deeper than one NAND.
  GateLibrary lib = make_lib2_library();
  PatternIndex idx = PatternIndex::build(lib);
  Network n("shallow");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  n.add_output(g, "o");
  Matcher m(lib, n, {}, &idx);
  for (std::size_t i = 0; i < idx.nand_rooted.size(); ++i) {
    const PatternEntry& e = idx.nand_rooted[i];
    const PatternGraph& p =
        lib.gates()[e.gate_index].patterns[e.pattern_index];
    bool deep = p.num_internal() > 1;
    EXPECT_EQ(m.can_root(g, idx.nand_root_shape[i]), !deep)
        << lib.gates()[e.gate_index].name;
  }
  EXPECT_EQ(m.attempts(), 0u);
  m.matches_at(g, MatchClass::Standard);
  EXPECT_EQ(m.attempts() + m.pruned(), idx.nand_rooted.size());
  EXPECT_GT(m.pruned(), 0u);
}

TEST(ShapeAutomaton, LibraryShapeCounts) {
  // Leaves as wildcards, the 44-3 patterns' nodes collapse to a few
  // hundred shapes; lib2's to a few dozen.
  GateLibrary l44 = make_44_library(3);
  PatternIndex i44 = PatternIndex::build(l44);
  EXPECT_EQ(i44.shapes.size(), 590u);
  GateLibrary l2 = make_lib2_library();
  EXPECT_EQ(PatternIndex::build(l2).shapes.size(), 45u);
  // Children precede parents in id order.
  for (std::uint32_t c = 0; c < i44.shapes.size(); ++c) {
    if (i44.shapes.inv_parent[c] != ShapeTable::kNone) {
      EXPECT_GT(i44.shapes.inv_parent[c], c);
    }
    for (std::uint32_t k = i44.shapes.nand_begin[c];
         k < i44.shapes.nand_begin[c + 1]; ++k)
      EXPECT_GT(i44.shapes.nand_parent[k].second, c);
  }
}

TEST(ShapeAutomaton, ArtifactLoadDerivesIdenticalShapes) {
  // Shapes are never serialized: the loader re-derives them, and the
  // result must equal the freshly built table.
  CompiledLibrary built =
      compile_library(make_random_genlib(41, 14, 4, true), {}, "r41");
  LibraryLoadResult loaded =
      deserialize_compiled_library(serialize_compiled_library(built));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const PatternIndex& a = built.index;
  const PatternIndex& b = loaded.lib.index;
  ASSERT_TRUE(b.has_shapes());
  EXPECT_EQ(a.shapes.inv_parent, b.shapes.inv_parent);
  EXPECT_EQ(a.shapes.nand_begin, b.shapes.nand_begin);
  EXPECT_EQ(a.shapes.nand_parent, b.shapes.nand_parent);
  EXPECT_EQ(a.inv_root_shape, b.inv_root_shape);
  EXPECT_EQ(a.nand_root_shape, b.nand_root_shape);
  ASSERT_EQ(a.nand_rooted.size(), b.nand_rooted.size());
  for (std::size_t i = 0; i < a.nand_rooted.size(); ++i)
    EXPECT_EQ(a.nand_rooted[i].shape, b.nand_rooted[i].shape);
}

TEST(ShapeAutomaton, C7552LikeWalksPinned) {
  // The pruned walk count on the 44-3 labeling: 829,131 walks with the
  // signature filter the automaton replaced, 265,667 with it (exactly
  // the walks that yield a match).  Matches enumerated do not move.
  Network sg;
  for (const BenchmarkCircuit& b : make_iscas85_like_suite())
    if (b.name == "c7552-like") sg = tech_decompose(b.network);
  ASSERT_GT(sg.size(), 0u);
  MapResult r = dag_map(sg, make_44_library(3));
  EXPECT_LE(r.match_attempts, 266'000u);
  EXPECT_EQ(r.matches_enumerated, 428'210u);
  EXPECT_EQ(r.truncations, 0u);
}

}  // namespace
}  // namespace dagmap
