#include "decomp/choices.hpp"

#include <algorithm>

#include "decomp/isop.hpp"
#include "decomp/lowering_memo.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

namespace {

bool mentions_var(const Expr& e, const std::string& var) {
  switch (e.op) {
    case Expr::Op::Var: return e.var == var;
    case Expr::Op::Const0:
    case Expr::Op::Const1: return false;
    default:
      return std::any_of(e.operands.begin(), e.operands.end(),
                         [&](const Expr& o) { return mentions_var(o, var); });
  }
}

// Brenner–Hermann-style AND-OR path restructuring: re-associates every
// AND/OR node along the paths containing `var` into a binary split
// (everything-else, var-side), so the path from `var` to the root
// crosses one two-input operator per original AND/OR level instead of a
// chain/tree position chosen blindly.  Purely associative/commutative —
// the function is unchanged; strash collapses the no-op cases.
Expr hoist_var(const Expr& e, const std::string& var) {
  switch (e.op) {
    case Expr::Op::Var:
    case Expr::Op::Const0:
    case Expr::Op::Const1: return e;
    case Expr::Op::Not: return Expr::make_not(hoist_var(e.operands[0], var));
    case Expr::Op::And:
    case Expr::Op::Or: {
      std::vector<Expr> cold, hot;
      for (const Expr& o : e.operands) {
        if (mentions_var(o, var))
          hot.push_back(hoist_var(o, var));
        else
          cold.push_back(o);
      }
      if (hot.empty() || cold.empty()) {
        std::vector<Expr>& ops = hot.empty() ? cold : hot;
        if (ops.size() == 1) return std::move(ops[0]);
        return e.op == Expr::Op::And ? Expr::make_and(std::move(ops))
                                     : Expr::make_or(std::move(ops));
      }
      Expr cold_part = cold.size() == 1
                           ? std::move(cold[0])
                           : (e.op == Expr::Op::And
                                  ? Expr::make_and(std::move(cold))
                                  : Expr::make_or(std::move(cold)));
      Expr hot_part = hot.size() == 1
                          ? std::move(hot[0])
                          : (e.op == Expr::Op::And
                                 ? Expr::make_and(std::move(hot))
                                 : Expr::make_or(std::move(hot)));
      std::vector<Expr> pair;
      pair.push_back(std::move(cold_part));
      pair.push_back(std::move(hot_part));
      return e.op == Expr::Op::And ? Expr::make_and(std::move(pair))
                                   : Expr::make_or(std::move(pair));
    }
  }
  return e;  // unreachable
}

}  // namespace

std::optional<unsigned> parse_choice_gens(const std::string& text) {
  if (text.empty()) return kChoiceGenAll;
  unsigned gens = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    std::string name = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (name == "balanced") gens |= kChoiceGenBalanced;
    else if (name == "chain") gens |= kChoiceGenChain;
    else if (name == "andor") gens |= kChoiceGenAndOr;
    else if (name == "all") gens |= kChoiceGenAll;
    else return std::nullopt;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return gens;
}

ChoiceDecomposition tech_decompose_choices(const Network& src,
                                           const ChoiceOptions& options) {
  unsigned gens = options.gens;
  if (!(gens & (kChoiceGenBalanced | kChoiceGenChain)))
    gens |= kChoiceGenBalanced;  // a subject needs at least one shape
  unsigned max_class = std::max(2u, options.max_class_size);

  ChoiceDecomposition out;
  out.subject.set_name(src.name());
  Network& net = out.subject;

  std::vector<NodeId> map(src.size(), kNullNode);  // src -> canonical node
  NetworkNandBuilder builder(net);
  // Every variant of a function, in generator order, up to the class
  // size: the lowerings a node with that function replays.
  LoweringMemo memo([&](const TruthTable& f,
                        const std::vector<std::string>& vars) {
    // Both phases feed every generator: positive SOP and the inverted
    // complement SOP (the AOI/OAI-friendly form).
    Expr phases[2] = {truth_table_to_expr(f, vars),
                      Expr::make_not(truth_table_to_expr(~f, vars))};
    std::vector<std::pair<Expr, DecompShape>> v;
    auto add = [&](Expr e, DecompShape shape) {
      if (v.size() < max_class) v.emplace_back(std::move(e), shape);
    };
    for (const Expr& e : phases) {
      if (gens & kChoiceGenBalanced) add(e, DecompShape::Balanced);
      if (gens & kChoiceGenChain) add(e, DecompShape::Chain);
    }
    if (gens & kChoiceGenAndOr) {
      unsigned nv = std::min<unsigned>(f.num_vars(), options.max_hoisted_vars);
      for (const Expr& e : phases)
        for (unsigned i = 0; i < nv; ++i)
          add(hoist_var(e, vars[i]), DecompShape::Balanced);
    }
    return v;
  });

  for (NodeId pi : src.inputs()) map[pi] = net.add_input(src.name(pi));
  for (NodeId l : src.latches())
    map[l] = net.add_latch_placeholder(src.name(l));

  std::vector<NodeId> fanins, values;
  for (NodeId id : src.topo_order()) {
    if (map[id] != kNullNode) continue;
    fanins.clear();
    for (NodeId f : src.fanins(id)) fanins.push_back(map[f]);
    switch (src.kind(id)) {
      case NodeKind::Const0: map[id] = builder.make_const(false); break;
      case NodeKind::Const1: map[id] = builder.make_const(true); break;
      // Strash can resolve a NAND/INV onto an earlier class's variant
      // root; canonical() lifts such a hit to that class's anchor so
      // consumers never dangle onto a non-anchor member.
      case NodeKind::Inv:
        map[id] = out.classes.canonical(builder.make_inv(fanins[0]));
        break;
      case NodeKind::Nand2:
        map[id] =
            out.classes.canonical(builder.make_nand2(fanins[0], fanins[1]));
        break;
      case NodeKind::Logic: {
        const TruthTable& f = src.function(id);
        if (f.is_const0() || f.is_const1()) {
          map[id] = builder.make_const(f.is_const1());
          break;
        }
        out.classes.begin_burst(static_cast<NodeId>(net.size()));
        NodeId first = kNullNode;
        for (const NandRecording& variant : memo.get(f)) {
          NodeId v = variant.replay(builder, fanins, values);
          if (first == kNullNode) first = v;
          out.classes.add_member(v);
        }
        // Consumers reference the class anchor (the last-id member):
        // every structural reader then sits beyond the fold point, and
        // the merged per-class cut/label state lands on the node the
        // readers actually consult.  Without a class (single surviving
        // variant) the first lowered root stands alone.
        NodeId canon = out.classes.end_burst();
        DAGMAP_ASSERT(first != kNullNode);
        // No class formed (single surviving variant): the lone root may
        // still have strashed onto an earlier class's member, so it too
        // goes through canonical().
        map[id] = canon != kNullNode ? canon : out.classes.canonical(first);
        break;
      }
      case NodeKind::PrimaryInput:
      case NodeKind::Latch:
        DAGMAP_ASSERT_MSG(false, "source not pre-mapped");
    }
  }
  obs::counter_add("decompose.functions_lowered", memo.functions_lowered());

  for (std::size_t i = 0; i < src.latches().size(); ++i)
    net.connect_latch(map[src.latches()[i]],
                      map[src.fanins(src.latches()[i])[0]]);
  for (const Output& o : src.outputs()) net.add_output(map[o.node], o.name);

  out.classes.finalize(net.size());
  DAGMAP_ASSERT(net.is_subject_graph());
  return out;
}

}  // namespace dagmap
