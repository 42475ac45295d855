#include "boolmatch/bool_mapper.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "boolmatch/npn_index.hpp"
#include "cutmap/cuts.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A selected Boolean match at a subject node.
struct BoolChosen {
  enum class Kind : std::uint8_t { GateMatch, Const0, Const1, Alias, NotAlias };
  Kind kind = Kind::GateMatch;
  const Gate* gate = nullptr;
  Cut cut;  // Alias/NotAlias: cut[0] is the aliased node
  /// Relation: pack_tt4(cut function) == npn_apply(pack_tt4(gate fn), R);
  /// gate pin i reads cut leaf R.perm[i] (negated if bit i of
  /// R.input_negate), and the gate output is inverted if R.output_negate.
  NpnTransform rel;
};

}  // namespace

MapResult bool_map(const Network& subject, const GateLibrary& lib,
                   const BoolMapOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "bool_map requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(lib.is_complete_for_mapping(),
                    "library must contain INV and NAND2");
  DAGMAP_ASSERT(options.cut_size >= 2 && options.cut_size <= kNpnMaxVars);

  const double inv_delay = lib.inverter()->pins[0].delay();
  const double inv_gate_area = lib.inverter()->area;

  // Library index: canonical function -> entries (boolmatch/npn_index.hpp;
  // shared with the priority-cut engine).  Built per call unless the
  // caller passes a persistent one.
  std::optional<NpnLibraryIndex> owned_index;
  const NpnLibraryIndex* index = options.npn_index;
  if (!index) index = &owned_index.emplace(lib);

  auto cuts = enumerate_cuts(subject, options.cut_size);

  MapResult result;
  result.label.assign(subject.size(), 0.0);
  std::vector<BoolChosen> chosen(subject.size());

  for (NodeId n : subject.topo_order()) {
    if (subject.is_source(n)) continue;
    double best = kInf;
    double best_area = kInf;
    // The structural fanin cut can be dominance-pruned away by a
    // single-leaf cut; keep it as a guaranteed fallback.
    std::vector<Cut> local = cuts[n];
    {
      Cut fanin_cut(subject.fanins(n).begin(), subject.fanins(n).end());
      std::sort(fanin_cut.begin(), fanin_cut.end());
      fanin_cut.erase(std::unique(fanin_cut.begin(), fanin_cut.end()),
                      fanin_cut.end());
      if (std::find(local.begin(), local.end(), fanin_cut) == local.end())
        local.push_back(std::move(fanin_cut));
    }
    for (const Cut& cut : local) {
      if (cut.size() == 1 && cut[0] == n) continue;  // trivial
      ++result.match_attempts;
      std::uint16_t tt = pack_tt4(cone_function(subject, n, cut));
      // Degenerate cones: constants and (possibly negated) wires.
      if (tt == 0x0000 || tt == 0xFFFF) {
        if (0.0 < best - options.epsilon) {
          best = 0.0;
          best_area = 0.0;
          chosen[n] = {tt ? BoolChosen::Kind::Const1 : BoolChosen::Kind::Const0,
                       nullptr,
                       {},
                       {}};
        }
        continue;
      }
      if (cut.size() == 1) {
        bool identity = tt == pack_tt4(TruthTable::variable(0, 1));
        bool negation = tt == pack_tt4(~TruthTable::variable(0, 1));
        if (identity && result.label[cut[0]] < best - options.epsilon) {
          best = result.label[cut[0]];
          best_area = 0.0;
          chosen[n] = {BoolChosen::Kind::Alias, nullptr, cut, {}};
          continue;
        }
        if (negation) {
          double a = result.label[cut[0]] + inv_delay;
          if (a < best - options.epsilon) {
            best = a;
            best_area = inv_gate_area;
            chosen[n] = {BoolChosen::Kind::NotAlias, nullptr, cut, {}};
          }
          continue;
        }
        if (identity) continue;
      }
      NpnTransform cut_to_canon;
      const std::vector<NpnLibEntry>* bucket =
          index->find(npn_canonical(tt, &cut_to_canon));
      if (!bucket) continue;

      for (const NpnLibEntry& e : *bucket) {
        // tt == apply(gate_tt, R) with R = compose(gate->canon,
        // inverse(cut->canon)).
        NpnTransform rel =
            npn_compose(e.to_canonical, npn_inverse(cut_to_canon));
        ++result.matches_enumerated;
        double arrival = 0.0;
        bool valid = true;
        for (unsigned pin = 0; pin < e.gate->num_inputs(); ++pin) {
          unsigned leaf_idx = rel.perm[pin];
          if (leaf_idx >= cut.size()) {
            // Gate pin bound to a padded variable: impossible for
            // full-support gates when the tables match.
            valid = false;
            break;
          }
          double a = result.label[cut[leaf_idx]];
          if ((rel.input_negate >> pin) & 1u) a += inv_delay;
          arrival = std::max(arrival, a + e.gate->pins[pin].delay());
        }
        if (!valid) continue;
        if (rel.output_negate) arrival += inv_delay;
        double area = e.gate->area;
        if (arrival < best - options.epsilon ||
            (arrival < best + options.epsilon && area < best_area)) {
          best = arrival;
          best_area = area;
          chosen[n] = {BoolChosen::Kind::GateMatch, e.gate, cut, rel};
        }
      }
    }
    DAGMAP_ASSERT_MSG(best != kInf, "no Boolean match at a subject node");
    result.label[n] = best;
  }

  for (const Output& o : subject.outputs())
    result.optimal_delay = std::max(result.optimal_delay, result.label[o.node]);
  for (NodeId l : subject.latches())
    result.optimal_delay =
        std::max(result.optimal_delay, result.label[subject.fanins(l)[0]]);

  // ---- cover construction (explicit inverters for negations) ----------
  MappedNetlist out(subject.name());
  std::vector<InstId> inst_of(subject.size(), kNullInst);  // positive phase
  std::vector<InstId> inv_of(subject.size(), kNullInst);   // negated phase
  const Gate* inv_gate = lib.inverter();

  for (NodeId pi : subject.inputs())
    inst_of[pi] = out.add_input(subject.name(pi));
  for (NodeId l : subject.latches())
    inst_of[l] = out.add_latch_placeholder(subject.name(l));

  auto negated = [&](NodeId n) {
    DAGMAP_ASSERT(inst_of[n] != kNullInst);
    if (inv_of[n] == kNullInst)
      inv_of[n] = out.add_gate(inv_gate, {inst_of[n]});
    return inv_of[n];
  };

  std::vector<NodeId> stack;
  auto require = [&](NodeId n) {
    if (inst_of[n] == kNullInst) stack.push_back(n);
  };
  for (const Output& o : subject.outputs()) require(o.node);
  for (NodeId l : subject.latches()) require(subject.fanins(l)[0]);

  while (!stack.empty()) {
    NodeId n = stack.back();
    if (inst_of[n] != kNullInst) {
      stack.pop_back();
      continue;
    }
    if (subject.kind(n) == NodeKind::Const0 ||
        subject.kind(n) == NodeKind::Const1) {
      inst_of[n] = out.add_constant(subject.kind(n) == NodeKind::Const1);
      stack.pop_back();
      continue;
    }
    const BoolChosen& m = chosen[n];
    switch (m.kind) {
      case BoolChosen::Kind::Const0:
        inst_of[n] = out.add_constant(false);
        stack.pop_back();
        continue;
      case BoolChosen::Kind::Const1:
        inst_of[n] = out.add_constant(true);
        stack.pop_back();
        continue;
      case BoolChosen::Kind::Alias:
      case BoolChosen::Kind::NotAlias: {
        NodeId src = m.cut[0];
        if (inst_of[src] == kNullInst) {
          stack.push_back(src);
          continue;
        }
        stack.pop_back();
        inst_of[n] = m.kind == BoolChosen::Kind::Alias ? inst_of[src]
                                                       : negated(src);
        continue;
      }
      case BoolChosen::Kind::GateMatch:
        break;
    }
    bool ready = true;
    for (unsigned pin = 0; pin < m.gate->num_inputs(); ++pin) {
      NodeId leaf = m.cut[m.rel.perm[pin]];
      if (inst_of[leaf] == kNullInst) {
        ready = false;
        stack.push_back(leaf);
      }
    }
    if (!ready) continue;
    stack.pop_back();
    std::vector<InstId> fanins;
    for (unsigned pin = 0; pin < m.gate->num_inputs(); ++pin) {
      NodeId leaf = m.cut[m.rel.perm[pin]];
      bool neg = (m.rel.input_negate >> pin) & 1u;
      fanins.push_back(neg ? negated(leaf) : inst_of[leaf]);
    }
    InstId g = out.add_gate(m.gate, fanins, subject.name(n));
    inst_of[n] = m.rel.output_negate ? out.add_gate(inv_gate, {g}) : g;
  }

  for (std::size_t i = 0; i < subject.latches().size(); ++i) {
    NodeId l = subject.latches()[i];
    out.connect_latch(inst_of[l], inst_of[subject.fanins(l)[0]]);
  }
  for (const Output& o : subject.outputs())
    out.add_output(inst_of[o.node], o.name);
  out.check();

  result.netlist = std::move(out);
  result.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace dagmap
