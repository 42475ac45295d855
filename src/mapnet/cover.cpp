#include "mapnet/cover.hpp"

#include <algorithm>
#include <cstdint>

#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

namespace {

// Constants need instances (they are match leaves / PO drivers with no
// pre-created anchor) but are `is_source` like PIs and latch outputs,
// which are created up front instead of marked.
bool marks_as_needed(const Network& subject, NodeId n) {
  NodeKind k = subject.kind(n);
  return k == NodeKind::Const0 || k == NodeKind::Const1 ||
         !subject.is_source(n);
}

}  // namespace

CoverSelection::CoverSelection(std::size_t num_nodes, unsigned num_writers)
    : records_(num_nodes), arenas_(std::max(1u, num_writers)) {
  DAGMAP_ASSERT(arenas_.size() <= UINT16_MAX);
}

SelectedMatch CoverSelection::at(NodeId n) const {
  const Record& r = records_[n];
  DAGMAP_ASSERT(r.gate != nullptr);
  const NodeId* base = arenas_[r.writer].ids.data() + r.offset;
  return {r.gate,
          {base, r.num_pins},
          {base + r.num_pins, r.num_covered},
          r.input_negate,
          r.output_negate};
}

std::span<NodeId> CoverSelection::stage(unsigned writer, const Gate* gate,
                                        std::size_t num_pins,
                                        std::span<const NodeId> covered,
                                        std::uint8_t input_negate,
                                        bool output_negate) {
  Arena& a = arenas_[writer];
  DAGMAP_ASSERT(gate != nullptr && num_pins <= UINT16_MAX &&
                a.committed + num_pins + covered.size() <= UINT32_MAX);
  a.ids.resize(a.committed + num_pins);
  a.ids.insert(a.ids.end(), covered.begin(), covered.end());
  a.staged = {gate,
              static_cast<std::uint32_t>(a.committed),
              static_cast<std::uint32_t>(covered.size()),
              static_cast<std::uint16_t>(writer),
              static_cast<std::uint16_t>(num_pins),
              input_negate,
              output_negate};
  return {a.ids.data() + a.committed, num_pins};
}

void CoverSelection::stage(unsigned writer, const MatchView& m) {
  std::span<NodeId> pins =
      stage(writer, m.gate, m.pin_binding.size(), m.covered);
  std::copy(m.pin_binding.begin(), m.pin_binding.end(), pins.begin());
}

std::span<NodeId> CoverSelection::staged_pins(unsigned writer) {
  Arena& a = arenas_[writer];
  return {a.ids.data() + a.committed, a.staged.num_pins};
}

void CoverSelection::commit(NodeId n, unsigned writer) {
  Arena& a = arenas_[writer];
  DAGMAP_ASSERT_MSG(a.staged.gate != nullptr, "commit without a staged pick");
  records_[n] = a.staged;
  a.committed = a.ids.size();
  a.staged.gate = nullptr;
}

std::vector<std::uint8_t> mark_cover(const Network& subject,
                                     const CoverSelection& chosen) {
  return mark_cover(subject, chosen, subject.topo_order());
}

std::vector<std::uint8_t> mark_cover(const Network& subject,
                                     const CoverSelection& chosen,
                                     std::span<const NodeId> order) {
  DAGMAP_ASSERT(chosen.size() == subject.size());
  DAGMAP_ASSERT(order.size() == subject.size());
  std::vector<std::uint8_t> needed(subject.size(), 0);
  auto touch = [&](NodeId n) {
    if (marks_as_needed(subject, n)) needed[n] = 1;
  };
  for (const Output& o : subject.outputs()) touch(o.node);
  for (NodeId l : subject.latches()) touch(subject.fanins(l)[0]);

  // Reverse topological sweep: every marker of a node (a needed match
  // root having it as a leaf) sits strictly later in the given order,
  // so one pass reaches the fixpoint.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId n = *it;
    if (!needed[n] || subject.is_source(n)) continue;
    DAGMAP_ASSERT_MSG(chosen.has(n),
                      "needed subject node has no selected match");
    for (NodeId leaf : chosen.at(n).pins) touch(leaf);
  }
  return needed;
}

MappedNetlist emit_cover(const Network& subject, const CoverSelection& chosen,
                         std::span<const std::uint8_t> needed,
                         std::string name, const Gate* inverter) {
  obs::Scope obs_scope("cover.emit");
  DAGMAP_ASSERT(chosen.size() == subject.size());
  DAGMAP_ASSERT(needed.size() == subject.size());
  MappedNetlist out(name.empty() ? subject.name() : std::move(name));

  std::size_t num_needed = 0, fanin_edges = 0;
  for (NodeId n = 0; n < subject.size(); ++n) {
    if (!needed[n]) continue;
    ++num_needed;
    if (!subject.is_source(n)) fanin_edges += chosen.at(n).pins.size();
  }
  out.reserve(subject.num_inputs() + subject.num_latches() + num_needed,
              fanin_edges + subject.num_latches());

  std::vector<InstId> inst_of(subject.size(), kNullInst);
  // Negated phase of a leaf, created on first use by the topologically
  // first gate that reads it (so the order stays schedule-independent).
  std::vector<InstId> inv_of(subject.size(), kNullInst);
  auto negated = [&](NodeId leaf) {
    DAGMAP_ASSERT_MSG(inverter != nullptr,
                      "negated match pin without an inverter gate");
    if (inv_of[leaf] == kNullInst)
      inv_of[leaf] = out.add_gate(inverter, {inst_of[leaf]});
    return inv_of[leaf];
  };

  // Sources first: PIs and latch outputs are the match leaves' anchors.
  for (NodeId pi : subject.inputs())
    inst_of[pi] = out.add_input(subject.name(pi));
  for (NodeId l : subject.latches())
    inst_of[l] = out.add_latch_placeholder(subject.name(l));

  // Emission order: seed a depth-first walk from each needed node in
  // subject topological order, descending through unemitted match leaves
  // first.  When every leaf precedes its match root topologically (the
  // plain mapper), the walk degenerates to the forward loop; choice
  // covers re-point leaves at class-best variants that may sit later in
  // the order, and the descent builds them on demand.  Either way the
  // order is a pure function of (subject, the selected views, needed) —
  // never of the schedule that produced the marking, nor of the arena
  // layout that holds the views.
  std::vector<InstId> fanins;
  std::vector<NodeId> stack;
  for (NodeId seed : subject.topo_order()) {
    if (!needed[seed] || inst_of[seed] != kNullInst) continue;
    stack.push_back(seed);
    while (!stack.empty()) {
      NodeId n = stack.back();
      if (inst_of[n] != kNullInst) {
        stack.pop_back();
        continue;
      }
      switch (subject.kind(n)) {
        case NodeKind::Const0:
          inst_of[n] = out.add_constant(false);
          stack.pop_back();
          continue;
        case NodeKind::Const1:
          inst_of[n] = out.add_constant(true);
          stack.pop_back();
          continue;
        default:
          break;
      }
      const SelectedMatch m = chosen.at(n);
      bool ready = true;
      for (NodeId leaf : m.pins) {
        if (inst_of[leaf] != kNullInst) continue;
        DAGMAP_ASSERT_MSG(needed[leaf],
                          "match leaf missing from the cover marking");
        stack.push_back(leaf);
        ready = false;
      }
      if (!ready) continue;
      fanins.clear();
      for (std::size_t pin = 0; pin < m.pins.size(); ++pin) {
        NodeId leaf = m.pins[pin];
        bool neg = (m.input_negate >> pin) & 1u;
        fanins.push_back(neg ? negated(leaf) : inst_of[leaf]);
      }
      InstId g = out.add_gate(m.gate, fanins, subject.name(n));
      if (m.output_negate) {
        DAGMAP_ASSERT_MSG(inverter != nullptr,
                          "negated match output without an inverter gate");
        g = out.add_gate(inverter, {g});
      }
      inst_of[n] = g;
      stack.pop_back();
    }
  }

  for (NodeId l : subject.latches())
    out.connect_latch(inst_of[l], inst_of[subject.fanins(l)[0]]);
  for (const Output& o : subject.outputs())
    out.add_output(inst_of[o.node], o.name);
  out.check();
  obs::counter_add("cover.gates", out.num_gates());
  return out;
}

MappedNetlist build_cover(const Network& subject, const CoverSelection& chosen,
                          std::string name, const Gate* inverter) {
  obs::Scope obs_scope("cover");
  return emit_cover(subject, chosen, mark_cover(subject, chosen),
                    std::move(name), inverter);
}

}  // namespace dagmap
