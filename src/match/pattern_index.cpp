#include "match/pattern_index.hpp"

#include <unordered_map>
#include <utility>

namespace dagmap {

namespace {

// Symmetry hash of each pattern subtree: leaves hash by their pin's
// *delay*, not its index, so two children of a NAND with equal hashes are
// interchangeable both structurally and in cost.  Trying both child
// orders for such children only permutes cost-equivalent pins, so the
// swapped order is pruned.
//
// That argument only holds for *private* subtrees (no node shared with
// the rest of the pattern).  Leaf-DAG patterns — best-phase ISOP forms
// of non-read-once functions like XOR or majority, and most generated
// supergates — share leaf nodes between sibling subtrees, and there a
// swap is not an automorphism: it changes which already-bound shared
// leaf each position must agree with, so pruning it loses real matches
// (e.g. the balanced ISOP of majority at its own decomposition).  Any
// subtree containing a shared node therefore mixes its root index into
// the hash, forcing distinct hashes and full two-order exploration,
// while pure tree subtrees keep the cheap symmetric pruning.
std::vector<std::uint64_t> symmetry_hashes(
    const PatternGraph& pg, const Gate& gate,
    const std::vector<std::uint32_t>& out_deg) {
  std::vector<std::uint64_t> h(pg.nodes.size());
  std::vector<unsigned char> shared(pg.nodes.size(), 0);
  for (std::size_t i = 0; i < pg.nodes.size(); ++i) {
    const PatternNode& n = pg.nodes[i];
    switch (n.kind) {
      case PatternNode::Kind::Leaf: {
        double d = gate.pins[n.pin].delay();
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        h[i] = bits * 0x9E3779B97F4A7C15ull + 0x51ED0BADull;
        break;
      }
      case PatternNode::Kind::Inv:
        h[i] = h[n.fanin0] * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
        shared[i] = shared[n.fanin0];
        break;
      case PatternNode::Kind::Nand2: {
        std::uint64_t a = h[n.fanin0], b = h[n.fanin1];
        if (a > b) std::swap(a, b);
        h[i] = (a ^ (b * 0xFF51AFD7ED558CCDull)) + 0xC4CEB9FE1A85EC53ull;
        shared[i] = shared[n.fanin0] | shared[n.fanin1];
        break;
      }
    }
    if (out_deg[i] > 1) shared[i] = 1;
    if (shared[i]) h[i] += (i + 1) * 0x2545F4914F6CDD1Dull;
  }
  return h;
}

}  // namespace

PatternIndex PatternIndex::build(const GateLibrary& lib) {
  PatternIndex index;
  const std::vector<Gate>& gates = lib.gates();
  for (std::uint32_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    for (std::uint32_t pi = 0; pi < g.patterns.size(); ++pi) {
      const PatternGraph& p = g.patterns[pi];
      const PatternNode& root = p.nodes[p.root];
      PatternEntry e;
      e.gate_index = gi;
      e.pattern_index = pi;
      e.out_deg = p.out_degrees();
      e.sym_hash = symmetry_hashes(p, g, e.out_deg);
      e.sig = compute_pattern_signature(p);
      if (root.kind == PatternNode::Kind::Inv)
        index.inv_rooted.push_back(std::move(e));
      else if (root.kind == PatternNode::Kind::Nand2)
        index.nand_rooted.push_back(std::move(e));
      // Leaf-rooted patterns (buffers) are excluded by pattern generation.
    }
  }
  index.derive_shapes(lib);
  return index;
}

void PatternIndex::derive_shapes(const GateLibrary& lib) {
  // Shape definitions by id: kind plus child shapes (a <= b for NAND2).
  struct Def {
    PatternNode::Kind kind;
    std::uint32_t a, b;
  };
  std::vector<Def> defs{{PatternNode::Kind::Leaf, 0, 0}};
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  auto intern = [&](PatternNode::Kind kind, std::uint32_t a, std::uint32_t b) {
    if (a > b) std::swap(a, b);
    std::uint64_t key = (std::uint64_t{static_cast<std::uint8_t>(kind)} << 62) |
                        (std::uint64_t{a} << 31) | b;
    auto [it, fresh] =
        ids.try_emplace(key, static_cast<std::uint32_t>(defs.size()));
    if (fresh) defs.push_back({kind, a, b});
    return it->second;
  };
  auto derive = [&](std::vector<PatternEntry>& bucket,
                    std::vector<std::uint32_t>& root_shape) {
    root_shape.clear();
    for (PatternEntry& e : bucket) {
      const PatternGraph& pg =
          lib.gates()[e.gate_index].patterns[e.pattern_index];
      e.shape.assign(pg.nodes.size(), ShapeTable::kLeaf);
      for (std::size_t i = 0; i < pg.nodes.size(); ++i) {
        const PatternNode& n = pg.nodes[i];
        if (n.kind == PatternNode::Kind::Inv)
          e.shape[i] = intern(n.kind, e.shape[n.fanin0], e.shape[n.fanin0]);
        else if (n.kind == PatternNode::Kind::Nand2)
          e.shape[i] = intern(n.kind, e.shape[n.fanin0], e.shape[n.fanin1]);
      }
      root_shape.push_back(e.shape[pg.root]);
    }
  };
  derive(inv_rooted, inv_root_shape);
  derive(nand_rooted, nand_root_shape);

  // Parent lists: INV parents directly, NAND2 parents as CSR by child.
  auto count = static_cast<std::uint32_t>(defs.size());
  shapes.inv_parent.assign(count, ShapeTable::kNone);
  shapes.nand_begin.assign(count + 1, 0);
  for (const Def& d : defs)
    if (d.kind == PatternNode::Kind::Nand2) {
      ++shapes.nand_begin[d.a + 1];
      if (d.b != d.a) ++shapes.nand_begin[d.b + 1];
    }
  for (std::uint32_t c = 0; c < count; ++c)
    shapes.nand_begin[c + 1] += shapes.nand_begin[c];
  shapes.nand_parent.assign(shapes.nand_begin[count], {});
  std::vector<std::uint32_t> fill(shapes.nand_begin.begin(),
                                  shapes.nand_begin.end() - 1);
  for (std::uint32_t id = 0; id < count; ++id) {
    const Def& d = defs[id];
    if (d.kind == PatternNode::Kind::Inv) {
      shapes.inv_parent[d.a] = id;
    } else if (d.kind == PatternNode::Kind::Nand2) {
      shapes.nand_parent[fill[d.a]++] = {d.b, id};
      if (d.b != d.a) shapes.nand_parent[fill[d.b]++] = {d.a, id};
    }
  }
}

bool PatternIndex::matches_shape(const GateLibrary& lib) const {
  const std::vector<Gate>& gates = lib.gates();
  auto check = [&](const std::vector<PatternEntry>& bucket) {
    for (const PatternEntry& e : bucket) {
      if (e.gate_index >= gates.size()) return false;
      const Gate& g = gates[e.gate_index];
      if (e.pattern_index >= g.patterns.size()) return false;
      const PatternGraph& p = g.patterns[e.pattern_index];
      if (e.sym_hash.size() != p.nodes.size()) return false;
      if (e.out_deg.size() != p.nodes.size()) return false;
    }
    return true;
  };
  return check(inv_rooted) && check(nand_rooted) &&
         size() == lib.total_patterns();
}

}  // namespace dagmap
