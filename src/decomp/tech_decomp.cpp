#include "decomp/tech_decomp.hpp"

#include <algorithm>

#include "decomp/isop.hpp"
#include "decomp/lowering_memo.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

NetworkNandBuilder::NetworkNandBuilder(Network& net,
                                       std::size_t expected_nodes)
    : net_(net) {
  grow_strash(2 * expected_nodes);
}

void NetworkNandBuilder::grow_strash(std::size_t capacity) {
  std::size_t size = 1024;
  while (size < capacity) size *= 2;
  if (size <= strash_.size()) return;
  std::vector<Entry> old(size);
  old.swap(strash_);
  strash_size_ = 0;
  for (const Entry& e : old)
    if (e.key_lo != 0 || e.key_hi != 0)
      strash_slot(std::uint64_t{e.key_hi} << 32 | e.key_lo) = e.node;
}

NodeId& NetworkNandBuilder::strash_slot(std::uint64_t key) {
  if (2 * (strash_size_ + 1) > strash_.size())
    grow_strash(2 * strash_.size());
  auto lo = static_cast<std::uint32_t>(key);
  auto hi = static_cast<std::uint32_t>(key >> 32);
  std::size_t mask = strash_.size() - 1;
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> 20 & mask;;
       i = (i + 1) & mask) {
    Entry& e = strash_[i];
    if (e.key_lo == lo && e.key_hi == hi) return e.node;
    if (e.key_lo == 0 && e.key_hi == 0) {
      e = {lo, hi, kNullNode};
      ++strash_size_;
      return e.node;
    }
  }
}

NodeId NetworkNandBuilder::make_const(bool value) {
  NodeId& slot = value ? const1_ : const0_;
  if (slot == kNullNode) slot = net_.add_constant(value);
  return slot;
}

NodeId NetworkNandBuilder::make_inv(NodeId a) {
  // Constant propagation and double-inverter collapse.
  switch (net_.kind(a)) {
    case NodeKind::Const0: return make_const(true);
    case NodeKind::Const1: return make_const(false);
    case NodeKind::Inv: return net_.fanins(a)[0];
    default: break;
  }
  NodeId& slot = strash_slot((std::uint64_t{1} << 62) | a);
  if (slot == kNullNode) slot = net_.add_inv(a);
  return slot;
}

NodeId NetworkNandBuilder::make_nand2(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  // NAND simplifications: nand(x,x) = !x; nand(x,0) = 1; nand(x,1) = !x.
  if (a == b) return make_inv(a);
  NodeKind ka = net_.kind(a), kb = net_.kind(b);
  if (ka == NodeKind::Const0 || kb == NodeKind::Const0) return make_const(true);
  if (ka == NodeKind::Const1) return make_inv(b);
  if (kb == NodeKind::Const1) return make_inv(a);
  NodeId& slot =
      strash_slot((std::uint64_t{2} << 62) | (std::uint64_t{a} << 31) | b);
  if (slot == kNullNode) slot = net_.add_nand2(a, b);
  return slot;
}

Network tech_decompose(const Network& src, const TechDecompOptions& options) {
  obs::Scope obs_scope("decompose");
  Network out(src.name());
  std::vector<NodeId> map(src.size(), kNullNode);
  // About two NAND2/INV nodes per source node.
  NetworkNandBuilder builder(out, 2 * src.num_internal());
  LoweringMemo memo([&](const TruthTable& f,
                        const std::vector<std::string>& vars) {
    std::vector<std::pair<Expr, DecompShape>> v;
    v.emplace_back(truth_table_to_expr_best_phase(f, vars), options.shape);
    return v;
  });

  {
    obs::Scope lower_scope("decompose.lower");
    // Sources first: PIs keep their names; latches become placeholders
    // to be wired after their D cones exist.
    for (NodeId pi : src.inputs()) map[pi] = out.add_input(src.name(pi));
    for (NodeId l : src.latches())
      map[l] = out.add_latch_placeholder(src.name(l));

    std::vector<NodeId> fanins, values;
    for (NodeId id : src.topo_order()) {
      if (map[id] != kNullNode) continue;  // sources already placed
      fanins.clear();
      for (NodeId f : src.fanins(id)) {
        DAGMAP_ASSERT(map[f] != kNullNode);
        fanins.push_back(map[f]);
      }
      switch (src.kind(id)) {
        case NodeKind::Const0: map[id] = builder.make_const(false); break;
        case NodeKind::Const1: map[id] = builder.make_const(true); break;
        case NodeKind::Inv: map[id] = builder.make_inv(fanins[0]); break;
        case NodeKind::Nand2:
          map[id] = builder.make_nand2(fanins[0], fanins[1]);
          break;
        case NodeKind::Logic: {
          const TruthTable& f = src.function(id);
          if (f.is_const0() || f.is_const1()) {
            map[id] = builder.make_const(f.is_const1());
            break;
          }
          map[id] = memo.get(f)[0].replay(builder, fanins, values);
          break;
        }
        case NodeKind::PrimaryInput:
        case NodeKind::Latch:
          DAGMAP_ASSERT_MSG(false, "source not pre-mapped");
      }
    }
  }
  obs::counter_add("decompose.functions_lowered", memo.functions_lowered());

  for (std::size_t i = 0; i < src.latches().size(); ++i) {
    NodeId l = src.latches()[i];
    NodeId d = src.fanins(l)[0];
    out.connect_latch(map[l], map[d]);
  }
  for (const Output& o : src.outputs()) out.add_output(map[o.node], o.name);

  Network clean = [&] {
    obs::Scope clean_scope("decompose.clean");
    Network c = out.cleaned_copy().first;
    c.check();
    DAGMAP_ASSERT(c.is_subject_graph());
    return c;
  }();
  obs::counter_add("decompose.subject_nodes", clean.num_internal());
  return clean;
}

}  // namespace dagmap
