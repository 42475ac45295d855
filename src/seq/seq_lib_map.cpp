#include "seq/seq_lib_map.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/dag_mapper.hpp"
#include "timing/timing.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One leaf of an expanded match.
struct ExpLeaf {
  NodeId node;             // original subject node
  std::uint32_t registers; // temporal offset
  double pin_delay;
};

// One expanded match at a node.
struct ExpMatch {
  const Gate* gate = nullptr;
  std::vector<ExpLeaf> leaves;  // pin order
};

// The expanded matches of every original internal node, computed once
// (they do not depend on phi).
struct ExpandedMatches {
  std::vector<std::vector<ExpMatch>> at;  // by original node id
  std::uint64_t enumerated = 0;
};

// Builds the expanded network over register offsets 0..J and runs the
// structural matcher at every (v, 0).
ExpandedMatches enumerate_expanded_matches(const Network& subject,
                                           const GateLibrary& lib,
                                           const SeqLibOptions& options) {
  const unsigned J = options.max_registers;

  // Resolve latch chains once: fanin -> (driver, weight).
  auto resolve = [&](NodeId n) {
    std::uint32_t w = 0;
    while (subject.kind(n) == NodeKind::Latch) {
      ++w;
      n = subject.fanins(n)[0];
    }
    return std::pair<NodeId, std::uint32_t>{n, w};
  };

  // Expanded network: ex_id(v, j).  A replica whose fanin offset would
  // exceed J degrades to a pseudo primary input (it can only be a leaf).
  Network ex("expanded");
  std::vector<std::vector<NodeId>> ex_id(
      subject.size(), std::vector<NodeId>(J + 1, kNullNode));
  // Reverse map: expanded node -> (original node, offset).
  std::vector<std::pair<NodeId, std::uint32_t>> origin;
  auto note_origin = [&](NodeId exn, NodeId v, std::uint32_t j) {
    if (origin.size() <= exn) origin.resize(exn + 1, {kNullNode, 0});
    origin[exn] = {v, j};
  };

  std::unordered_map<std::uint64_t, NodeId> deep_leaf;
  const auto& topo = subject.topo_order();
  for (unsigned j = J + 1; j-- > 0;) {
    for (NodeId v : topo) {
      NodeKind kind = subject.kind(v);
      if (kind == NodeKind::Latch) continue;
      NodeId exn = kNullNode;
      if (subject.is_source(v)) {
        exn = ex.add_input("s" + std::to_string(v) + "_" + std::to_string(j));
      } else {
        // Gather expanded fanins; an offset past the bound becomes a
        // dedicated pseudo-PI leaf (matches may end there but not
        // continue through).
        std::vector<NodeId> fan;
        bool ok = true;
        for (NodeId f : subject.fanins(v)) {
          auto [drv, w] = resolve(f);
          unsigned fj = j + w;
          if (fj > J) {
            auto [it, inserted] = deep_leaf.try_emplace(
                (std::uint64_t{drv} << 16) | fj, kNullNode);
            if (inserted) {
              it->second = ex.add_input("deep" + std::to_string(drv) + "_" +
                                        std::to_string(fj));
              note_origin(it->second, drv, fj);
            }
            fan.push_back(it->second);
            continue;
          }
          DAGMAP_ASSERT(ex_id[drv][fj] != kNullNode);
          fan.push_back(ex_id[drv][fj]);
        }
        if (!ok) {
          exn = ex.add_input("p" + std::to_string(v) + "_" + std::to_string(j));
        } else if (kind == NodeKind::Inv) {
          exn = ex.add_inv(fan[0]);
        } else if (kind == NodeKind::Nand2) {
          exn = ex.add_nand2(fan[0], fan[1]);
        } else {
          // Constants replicate as constants.
          exn = ex.add_constant(kind == NodeKind::Const1);
        }
      }
      ex_id[v][j] = exn;
      note_origin(exn, v, j);
    }
  }

  Matcher matcher(lib, ex);
  ExpandedMatches result;
  result.at.resize(subject.size());
  for (NodeId v : topo) {
    if (subject.is_source(v) || subject.kind(v) == NodeKind::Latch) continue;
    NodeId root = ex_id[v][0];
    if (ex.is_source(root)) continue;  // degraded replica (cannot happen at j=0
                                       // unless a fanin chain exceeds J)
    matcher.for_each_match(root, options.match_class, [&](const MatchView& m) {
      ExpMatch em;
      em.gate = m.gate;
      em.leaves.reserve(m.pin_binding.size());
      for (std::size_t pin = 0; pin < m.pin_binding.size(); ++pin) {
        auto [u, jj] = origin[m.pin_binding[pin]];
        DAGMAP_ASSERT(u != kNullNode);
        em.leaves.push_back({u, jj, m.gate->pins[pin].delay()});
      }
      result.at[v].push_back(std::move(em));
      ++result.enumerated;
    });
    DAGMAP_ASSERT_MSG(!result.at[v].empty(),
                      "no expanded match at an internal node");
  }
  return result;
}

// Resolves a node through latch chains: (combinational driver, weight).
std::pair<NodeId, std::uint32_t> resolve_chain(const Network& subject,
                                               NodeId n) {
  std::uint32_t w = 0;
  while (subject.kind(n) == NodeKind::Latch) {
    ++w;
    n = subject.fanins(n)[0];
  }
  return {n, w};
}

bool feasible_with(const Network& subject, const ExpandedMatches& matches,
                   double phi, std::vector<double>* labels_out) {
  std::vector<double> l(subject.size(), 0.0);
  const double bound =
      (static_cast<double>(subject.num_internal()) + 2.0) * std::max(phi, 1.0) +
      1.0;
  const auto& topo = subject.topo_order();
  std::size_t max_rounds = 4 * subject.size() + 16;

  bool changed = true;
  for (std::size_t round = 0; round < max_rounds && changed; ++round) {
    changed = false;
    for (NodeId v : topo) {
      if (subject.is_source(v) || subject.kind(v) == NodeKind::Latch) continue;
      double best = kInf;
      for (const ExpMatch& m : matches.at[v]) {
        double worst = -kInf;
        for (const ExpLeaf& leaf : m.leaves)
          worst = std::max(worst, l[leaf.node] - leaf.registers * phi +
                                      leaf.pin_delay);
        best = std::min(best, worst);
      }
      if (best > l[v] + 1e-9) {
        l[v] = best;
        changed = true;
        if (l[v] > bound) return false;
      }
    }
  }
  if (changed) return false;

  // Endpoint condition: a primary output behind w registers tolerates a
  // driver lag of at most w, i.e. l(driver) <= (w+1) * phi — the w = 0
  // case is the plain "one cycle to the pads" condition.
  for (const Output& o : subject.outputs()) {
    auto [drv, w] = resolve_chain(subject, o.node);
    if (l[drv] > (w + 1.0) * phi + 1e-9) return false;
  }

  if (labels_out) *labels_out = std::move(l);
  return true;
}

}  // namespace

bool seq_lib_period_feasible(const Network& subject, const GateLibrary& lib,
                             double phi, const SeqLibOptions& options,
                             SeqLibResult* result) {
  DAGMAP_ASSERT(subject.is_subject_graph());
  ExpandedMatches matches = enumerate_expanded_matches(subject, lib, options);
  std::vector<double> labels;
  bool ok = feasible_with(subject, matches, phi, &labels);
  if (result) {
    result->feasible = ok;
    result->period = phi;
    result->matches_enumerated = matches.enumerated;
    if (ok) result->label = std::move(labels);
  }
  return ok;
}

SeqLibResult optimal_period_lib_map(const Network& subject,
                                    const GateLibrary& lib,
                                    const SeqLibOptions& options) {
  DAGMAP_ASSERT(subject.is_subject_graph());
  DAGMAP_ASSERT(lib.is_complete_for_mapping());
  ExpandedMatches matches = enumerate_expanded_matches(subject, lib, options);

  // Upper bound: the map-only period (combinational DAG covering with
  // latch outputs as sources) is always representable.
  double hi = dag_map(subject, lib).optimal_delay;
  if (hi <= 0.0) hi = 1.0;
  // Lower bound: no period below the largest single pin delay works for
  // a non-empty circuit.
  double lo = 0.0;

  SeqLibResult best;
  std::vector<double> labels;
  if (!feasible_with(subject, matches, hi, &labels)) {
    // Widen defensively (should not trigger: hi has a witness).
    double probe = hi;
    for (int i = 0; i < 16 && !feasible_with(subject, matches, probe, &labels);
         ++i)
      probe *= 2;
    hi = probe;
  }
  best.feasible = true;
  best.period = hi;
  best.label = labels;
  best.matches_enumerated = matches.enumerated;

  while (hi - lo > options.epsilon) {
    double mid = 0.5 * (lo + hi);
    if (feasible_with(subject, matches, mid, &labels)) {
      hi = mid;
      best.period = mid;
      best.label = labels;
    } else {
      lo = mid;
    }
  }
  return best;
}

SeqLibMapping optimal_period_lib_map_construct(const Network& subject,
                                               const GateLibrary& lib,
                                               const SeqLibOptions& options) {
  SeqLibMapping out;
  // Recompute matches (cheap relative to the search) and the optimum.
  ExpandedMatches matches = enumerate_expanded_matches(subject, lib, options);
  out.summary = optimal_period_lib_map(subject, lib, options);
  DAGMAP_ASSERT(out.summary.feasible);
  const double phi = out.summary.period;
  const std::vector<double>& l = out.summary.label;

  // Retiming lag per node: the cycle index of its scheduled time.
  // lambda(v) = l(v) - phi * r(v) lands in (0, phi].
  out.lag.assign(subject.size(), 0);
  for (NodeId v = 0; v < subject.size(); ++v) {
    if (subject.is_source(v) || subject.kind(v) == NodeKind::Latch) continue;
    out.lag[v] =
        static_cast<std::int32_t>(std::ceil(l[v] / phi - 1e-9)) - 1;
    if (out.lag[v] < 0) out.lag[v] = 0;
  }

  // Select, per node, the first match achieving its label.
  std::vector<const ExpMatch*> chosen(subject.size(), nullptr);
  for (NodeId v = 0; v < subject.size(); ++v) {
    if (subject.is_source(v) || subject.kind(v) == NodeKind::Latch) continue;
    for (const ExpMatch& m : matches.at[v]) {
      double worst = -kInf;
      for (const ExpLeaf& leaf : m.leaves)
        worst = std::max(worst,
                         l[leaf.node] - leaf.registers * phi + leaf.pin_delay);
      if (worst <= l[v] + 1e-6) {
        chosen[v] = &m;
        break;
      }
    }
    DAGMAP_ASSERT_MSG(chosen[v] != nullptr, "no match achieves the label");
  }

  // Build the mapped + retimed netlist.  A gate for node v sits in
  // cycle lag[v]; a leaf (u, j) connects through j + lag[v] - lag[u]
  // registers.  Register edges may close cycles, so instances are
  // created in topological order of the *zero-register* edges only, with
  // latch chains as placeholders wired afterwards.
  MappedNetlist& net = out.netlist;
  net = MappedNetlist(subject.name());
  std::vector<InstId> inst(subject.size(), kNullInst);
  for (NodeId pi : subject.inputs())
    inst[pi] = net.add_input(subject.name(pi));

  auto edge_registers = [&](NodeId v, const ExpLeaf& leaf) {
    std::int64_t regs =
        static_cast<std::int64_t>(leaf.registers) + out.lag[v] -
        (subject.is_source(leaf.node) ? 0 : out.lag[leaf.node]);
    DAGMAP_ASSERT_MSG(regs >= 0, "negative register count in realization");
    return static_cast<std::uint32_t>(regs);
  };

  // 1. Needed set: fixpoint over selected match leaves (cycles allowed).
  std::vector<bool> needed(subject.size(), false);
  std::vector<NodeId> work;
  std::vector<std::pair<NodeId, std::uint32_t>> po_edges;
  auto need = [&](NodeId n) {
    if (!needed[n]) {
      needed[n] = true;
      work.push_back(n);
    }
  };
  for (const Output& o : subject.outputs()) {
    auto [drv, w] = resolve_chain(subject, o.node);
    po_edges.push_back({drv, w});
    need(drv);
  }
  while (!work.empty()) {
    NodeId v = work.back();
    work.pop_back();
    if (subject.is_source(v)) continue;
    if (subject.kind(v) == NodeKind::Const0 ||
        subject.kind(v) == NodeKind::Const1)
      continue;
    for (const ExpLeaf& leaf : chosen[v]->leaves) need(leaf.node);
  }

  // 2. Topological order over zero-register edges of the realization.
  std::vector<NodeId> gates;
  for (NodeId v = 0; v < subject.size(); ++v)
    if (needed[v] && !subject.is_source(v)) gates.push_back(v);
  std::vector<std::uint32_t> local(subject.size(), 0);
  for (std::size_t i = 0; i < gates.size(); ++i) local[gates[i]] = i;
  std::vector<std::uint32_t> pending(gates.size(), 0);
  std::vector<std::vector<std::uint32_t>> zero_out(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    NodeId v = gates[i];
    if (subject.kind(v) == NodeKind::Const0 ||
        subject.kind(v) == NodeKind::Const1)
      continue;
    for (const ExpLeaf& leaf : chosen[v]->leaves) {
      if (subject.is_source(leaf.node)) continue;
      if (edge_registers(v, leaf) == 0) {
        zero_out[local[leaf.node]].push_back(static_cast<std::uint32_t>(i));
        ++pending[i];
      }
    }
  }
  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < gates.size(); ++i)
    if (pending[i] == 0) order.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t head = 0; head < order.size(); ++head)
    for (std::uint32_t o : zero_out[order[head]])
      if (--pending[o] == 0) order.push_back(o);
  DAGMAP_ASSERT_MSG(order.size() == gates.size(),
                    "combinational cycle in the realization");

  // 3. Latch chains as placeholders, wired to their drivers at the end.
  std::unordered_map<std::uint64_t, InstId> chain_cache;
  std::vector<std::pair<InstId, NodeId>> chain_roots;  // (latch, driver)
  auto through_registers = [&](NodeId driver, std::uint32_t count) -> InstId {
    DAGMAP_ASSERT(count >= 1);
    InstId last = kNullInst;
    for (std::uint32_t d = 1; d <= count; ++d) {
      std::uint64_t key = (std::uint64_t{driver} << 16) | d;
      auto [it, inserted] = chain_cache.try_emplace(key, kNullInst);
      if (inserted) {
        it->second = net.add_latch_placeholder();
        if (d == 1)
          chain_roots.push_back({it->second, driver});
        else
          net.connect_latch(it->second, chain_cache.at(key - 1));
      }
      last = it->second;
    }
    return last;
  };

  for (std::uint32_t idx : order) {
    NodeId v = gates[idx];
    if (subject.kind(v) == NodeKind::Const0 ||
        subject.kind(v) == NodeKind::Const1) {
      inst[v] = net.add_constant(subject.kind(v) == NodeKind::Const1);
      continue;
    }
    const ExpMatch& m = *chosen[v];
    std::vector<InstId> fanins;
    for (const ExpLeaf& leaf : m.leaves) {
      std::uint32_t regs = edge_registers(v, leaf);
      if (regs == 0) {
        DAGMAP_ASSERT(inst[leaf.node] != kNullInst);
        fanins.push_back(inst[leaf.node]);
      } else {
        fanins.push_back(through_registers(leaf.node, regs));
      }
    }
    inst[v] = net.add_gate(m.gate, fanins, subject.name(v));
  }
  for (std::size_t i = 0; i < po_edges.size(); ++i) {
    auto [drv, w] = po_edges[i];
    std::int64_t regs = static_cast<std::int64_t>(w) -
                        (subject.is_source(drv) ? 0 : out.lag[drv]);
    DAGMAP_ASSERT_MSG(regs >= 0, "negative PO register count");
    InstId d = regs == 0 ? inst[drv]
                         : through_registers(drv, static_cast<std::uint32_t>(regs));
    net.add_output(d, subject.outputs()[i].name);
  }
  for (auto [latch, driver] : chain_roots) {
    DAGMAP_ASSERT(inst[driver] != kNullInst);
    net.connect_latch(latch, inst[driver]);
  }

  net.check();
  out.realized_period = circuit_delay(net);
  return out;
}

}  // namespace dagmap
