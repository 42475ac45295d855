#include "treemap/tree_mapper.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "mapnet/cover.hpp"
#include "match/matcher.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MapResult tree_map(const Network& subject, const GateLibrary& lib,
                   const TreeMapOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "tree_map requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(lib.is_complete_for_mapping(),
                    "library must contain INV and NAND2");

  Matcher matcher(lib, subject);
  const auto& fanout = subject.fanout_counts();

  MapResult result;
  result.label.assign(subject.size(), 0.0);   // DP cost per objective
  std::vector<double> arrival(subject.size(), 0.0);  // always delay

  CoverSelection chosen(subject.size());

  // Exact matches never cross multi-fanout points, so a single global
  // bottom-up DP over all internal nodes is exactly per-tree optimal
  // covering: multi-fanout nodes act as tree inputs for their consumers.
  for (NodeId n : subject.topo_order()) {
    if (subject.is_source(n)) continue;
    double best = kInf;
    double tie = kInf;
    bool have = false;
    matcher.for_each_match(n, MatchClass::Exact, [&](const MatchView& m) {
      ++result.matches_enumerated;
      double cost;
      if (options.objective == TreeMapObjective::Delay) {
        cost = match_arrival(m, result.label);
      } else {
        // Area DP: charge the gate plus covered (single-fanout) leaf
        // cones; multi-fanout leaves belong to another tree.
        cost = m.gate->area;
        for (NodeId leaf : m.pin_binding)
          if (!subject.is_source(leaf) && fanout[leaf] == 1)
            cost += result.label[leaf];
      }
      double second = options.objective == TreeMapObjective::Delay
                          ? m.gate->area
                          : match_arrival(m, arrival);
      if (cost < best - options.epsilon ||
          (cost < best + options.epsilon && second < tie)) {
        best = cost;
        tie = second;
        have = true;
        chosen.stage(0, m);
      }
    });
    DAGMAP_ASSERT_MSG(have, "no exact match at an internal subject node");
    chosen.commit(n, 0);
    const SelectedMatch pick = chosen.at(n);
    result.label[n] = best;
    arrival[n] = match_arrival({pick.gate, nullptr, pick.pins, pick.covered},
                               arrival);
  }
  result.match_attempts = matcher.attempts();
  result.truncations = matcher.truncations();

  for (const Output& o : subject.outputs())
    result.optimal_delay = std::max(result.optimal_delay, arrival[o.node]);
  for (NodeId l : subject.latches())
    result.optimal_delay =
        std::max(result.optimal_delay, arrival[subject.fanins(l)[0]]);

  result.netlist = build_cover(subject, chosen);
  result.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace dagmap
