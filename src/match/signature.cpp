#include "match/signature.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace dagmap {

namespace {

template <typename T>
T sat_add(T a, std::uint32_t b) {
  std::uint32_t sum = static_cast<std::uint32_t>(a) + b;
  constexpr std::uint32_t kMax = std::numeric_limits<T>::max();
  return static_cast<T>(sum > kMax ? kMax : sum);
}

// Collects the required kind-sequences of every root path of `pg`,
// recording each prefix up to kSignaturePathDepth.  `val`/`len` encode
// the sequence above `p` (root kind at the most significant bit).
void collect_pattern_paths(const PatternGraph& pg, std::uint32_t p,
                           std::uint64_t val, unsigned len,
                           std::uint64_t& mask) {
  const PatternNode& n = pg.nodes[p];
  if (n.kind == PatternNode::Kind::Leaf) return;
  unsigned k = n.kind == PatternNode::Kind::Nand2 ? 1 : 0;
  val = (val << 1) | k;
  ++len;
  mask |= 1ull << ((1ull << len) + val);
  if (len == kSignaturePathDepth) return;
  collect_pattern_paths(pg, static_cast<std::uint32_t>(n.fanin0), val, len,
                        mask);
  if (n.kind == PatternNode::Kind::Nand2)
    collect_pattern_paths(pg, static_cast<std::uint32_t>(n.fanin1), val, len,
                          mask);
}

}  // namespace

PatternSignature compute_pattern_signature(const PatternGraph& pg) {
  PatternSignature s;
  s.total = static_cast<std::uint16_t>(
      std::min<std::size_t>(pg.nodes.size(), 0xFFFF));

  // Internal depth below each node (leaves count 0), bottom-up: nodes are
  // stored children-before-parents.
  std::vector<std::uint16_t> depth(pg.nodes.size(), 0);
  for (std::uint32_t i = 0; i < pg.nodes.size(); ++i) {
    const PatternNode& n = pg.nodes[i];
    switch (n.kind) {
      case PatternNode::Kind::Leaf:
        break;
      case PatternNode::Kind::Inv:
        depth[i] = sat_add(depth[n.fanin0], 1);
        s.inv_count = sat_add(s.inv_count, 1u);
        break;
      case PatternNode::Kind::Nand2:
        depth[i] = sat_add(std::max(depth[n.fanin0], depth[n.fanin1]), 1);
        s.nand_count = sat_add(s.nand_count, 1u);
        break;
    }
  }
  s.depth = depth[pg.root];

  // Exact distinct per-kind counts within distance d of the root: BFS by
  // distance, counting each node at its minimum distance only.
  std::vector<std::uint8_t> dist(pg.nodes.size(), 0xFF);
  std::vector<std::uint32_t> frontier{pg.root}, next;
  dist[pg.root] = 0;
  for (unsigned d = 0; d < kSignatureNearDepth && !frontier.empty(); ++d) {
    for (std::uint32_t p : frontier) {
      const PatternNode& n = pg.nodes[p];
      if (n.kind == PatternNode::Kind::Leaf) continue;
      unsigned k = n.kind == PatternNode::Kind::Nand2 ? 1 : 0;
      for (unsigned dd = d; dd < kSignatureNearDepth; ++dd)
        s.near[k][dd] = sat_add(s.near[k][dd], 1u);
      auto visit = [&](std::int32_t child) {
        auto c = static_cast<std::uint32_t>(child);
        if (dist[c] == 0xFF) {
          dist[c] = static_cast<std::uint8_t>(d + 1);
          next.push_back(c);
        }
      };
      visit(n.fanin0);
      if (n.kind == PatternNode::Kind::Nand2) visit(n.fanin1);
    }
    frontier.swap(next);
    next.clear();
  }

  collect_pattern_paths(pg, pg.root, 0, 0, s.paths);
  return s;
}

}  // namespace dagmap
