#include "core/dag_mapper.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>

#include "core/choice_pricing.hpp"
#include "core/parallel.hpp"
#include "core/partition.hpp"
#include "dagmap/load_rounds.hpp"
#include "mapnet/cover.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MapResult dag_map(const Network& subject, const GateLibrary& lib,
                  const DagMapOptions& options) {
  if (options.load_rounds > 0) {
    // Iterated load-aware flow (dagmap/load_rounds.hpp): each round is
    // one plain dag_map against a re-priced library.  The pattern
    // pre-index is shape-compatible with every re-priced copy (it
    // references gates/patterns by index), so it is reused as-is.
    DagMapOptions inner = options;
    inner.load_rounds = 0;
    bool own_session = options.profile && !obs::enabled();
    if (own_session) obs::start();
    MapResult r = map_with_load_rounds(
        lib, options.load_rounds, options.load_model, options.epsilon,
        [&](const GateLibrary& round_lib) {
          return dag_map(subject, round_lib, inner);
        });
    if (options.profile) {
      if (own_session) obs::stop();
      r.profile = obs::collect();
    }
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "dag_map requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(lib.is_complete_for_mapping(),
                    "library must contain INV and NAND2");

  // Own a profiling session unless the caller (CLI, bench harness)
  // already has one spanning a wider pipeline.
  bool own_session = options.profile && !obs::enabled();
  if (own_session) obs::start();

  MapResult result;
  Matcher matcher = [&] {
    obs::Scope scope("match.build");
    return Matcher(lib, subject,
                   {.use_signature_index = options.use_signature_index},
                   options.pattern_index);
  }();
  obs::counter_add("library.patterns", lib.total_patterns());
  result.label.assign(subject.size(), 0.0);

  // Choice-aware leaf pricing (core/choice_pricing.hpp): constructed
  // only for an active annotation, so the unannotated flow never
  // touches the hook and stays bit-identical to the historical mapper.
  const ChoiceClasses* choices =
      options.choices && options.choices->active() ? options.choices : nullptr;
  std::optional<ChoicePricing> pricing;
  if (choices) pricing.emplace(subject, *choices, result.label);

  // Fastest match per node (labeling phase); with area recovery we also
  // keep the full match lists to re-select against required times.
  std::vector<std::optional<Match>> fastest(subject.size());
  std::vector<std::vector<Match>> all_matches;
  if (options.area_recovery) all_matches.resize(subject.size());

  const auto& order = subject.topo_order();

  // Schedule selection: monolithic depth wavefronts, or the partitioned
  // pipeline (fanout-free windows labeled wave-by-wave with boundary
  // arrival-time exchange; see core/partition.hpp).  Both visit every
  // node with all match-leaf labels settled, so results are identical.
  bool use_partitions =
      options.partition_mode == PartitionMode::On ||
      (options.partition_mode == PartitionMode::Auto &&
       subject.num_internal() >= options.partition_auto_threshold);
  std::optional<Partitioning> parts;
  if (use_partitions) {
    parts = partition_subject(subject, {.window_size = options.partition_window,
                                        .choices = choices});
    result.partitioned = true;
    result.num_partitions = parts->num_partitions();
    result.partition_waves = parts->num_waves();
    result.partition_boundary_edges = parts->boundary_edges();
    result.partition_max_nodes = parts->max_partition_nodes();
  }

  // Depth-wavefront schedule for the monolithic path: every leaf of a
  // match rooted at level L is a strict transitive fanin (level < L), so
  // one level's nodes read only finished labels and label independently.
  std::vector<std::vector<NodeId>> waves;
  if (!use_partitions && choices) {
    // Choice subjects level over the augmented edges of the
    // anchor-scheduling contract, so every class fold completes a wave
    // before its first per-class reader.
    waves = choice_wavefronts(subject, *choices);
  } else if (!use_partitions) {
    std::vector<std::uint32_t> level(subject.size(), 0);
    std::uint32_t max_level = 0;
    for (NodeId n : order) {
      if (subject.is_source(n)) continue;
      std::uint32_t l = 0;
      for (NodeId f : subject.fanins(n)) l = std::max(l, level[f]);
      level[n] = l + 1;
      max_level = std::max(max_level, level[n]);
    }
    waves.resize(max_level + 1);
    for (NodeId n : order)
      if (!subject.is_source(n)) waves[level[n]].push_back(n);
  }

  unsigned num_threads = resolve_num_threads(options.num_threads);
  // Per-worker state: the match counter, and the running best match of
  // the node being labeled, overwritten in place on every improvement
  // so only the final pick is copied out (one `Match` per node).
  struct alignas(64) WorkerState {
    std::uint64_t enumerated = 0;
    Match best;
  };
  std::vector<WorkerState> workers(num_threads);

  auto label_node = [&](NodeId n, unsigned worker) {
    WorkerState& w = workers[worker];
    double best = kInf;
    double best_area = kInf;
    const Gate* best_gate = nullptr;
    matcher.for_each_match(n, options.match_class, [&](const MatchView& m) {
      ++w.enumerated;
      double a = choices ? pricing->match_arrival(m, n)
                         : match_arrival(m, result.label);
      // Primary criterion: arrival.  Tie-break: gate area, so the
      // delay-optimal mapping does not pick needlessly big gates; then
      // gate name, so the selection is independent of enumeration order.
      bool take = a < best - options.epsilon;
      if (!take && a < best + options.epsilon) {
        take = m.gate->area < best_area ||
               (m.gate->area == best_area && best_gate != nullptr &&
                m.gate->name < best_gate->name);
      }
      if (take) {
        best = a;
        best_area = m.gate->area;
        best_gate = m.gate;
        w.best.assign(m);
      }
      if (options.area_recovery) all_matches[n].push_back(Match(m));
    });
    DAGMAP_ASSERT_MSG(best_gate != nullptr,
                      "no match at an internal subject node");
    fastest[n] = w.best;
    result.label[n] = best;
    if (choices) {
      // Re-point the selected matches' classed leaves at the class-best
      // variants (folded in an earlier wave by the anchor rule), so all
      // downstream passes price and descend through plain label[] reads.
      // Then fold this node's own class if it is the anchor.
      pricing->rewrite(*fastest[n], n);
      if (options.area_recovery)
        for (Match& mm : all_matches[n]) pricing->rewrite(mm, n);
      pricing->on_labeled(n);
    }
  };

  // The pool outlives labeling: the partitioned cover marking reuses it.
  ThreadPool pool(num_threads);
  {
    obs::Scope scope("label");
    if (use_partitions) {
      // Wave-by-wave with a barrier between waves: the boundary
      // arrival-time exchange.  Within a partition, members label
      // sequentially in topological order.
      for (std::size_t w = 0; w < parts->num_waves(); ++w) {
        std::span<const PartId> wave = parts->wave(w);
        pool.parallel_for(
            wave.size(),
            [&](std::size_t i, unsigned worker) {
              for (NodeId n : parts->members(wave[i])) label_node(n, worker);
            },
            "label.partition");
      }
    } else {
      for (const std::vector<NodeId>& wave : waves)
        pool.parallel_for(
            wave.size(),
            [&](std::size_t i, unsigned worker) {
              label_node(wave[i], worker);
            },
            "label.wave");
    }
    for (const WorkerState& w : workers)
      result.matches_enumerated += w.enumerated;
    result.match_attempts = matcher.attempts();
    result.match_prunes = matcher.pruned();
    result.truncations = matcher.truncations();
    if (obs::enabled()) {
      obs::counter_add("label.waves",
                       use_partitions ? parts->num_waves() : waves.size());
      obs::counter_add("label.nodes", subject.num_internal());
      obs::counter_add("match.enumerated", result.matches_enumerated);
      obs::counter_add("match.walks", result.match_attempts);
      obs::counter_add("match.pruned", result.match_prunes);
      obs::counter_add("match.truncations", result.truncations);
    }
  }

  // Endpoint network: with choices, a copy whose POs / latch D inputs
  // are moved from the class representatives onto the class-best
  // variants; the subject itself otherwise.  Every endpoint-driven pass
  // below (delay, required times, cover) runs against it.
  std::optional<Network> redirected;
  if (choices) redirected = pricing->redirect_endpoints(subject);
  const Network& cnet = choices ? *redirected : subject;

  // Forward evaluation order for the label-consuming passes: Kahn order
  // normally; id (creation) order for choice subjects, where a
  // rewritten match can read a class-best leaf that is not a structural
  // fanin of its root (ids still increase root-ward, Kahn positions may
  // not).
  std::vector<NodeId> id_order;
  if (choices) {
    id_order.resize(subject.size());
    std::iota(id_order.begin(), id_order.end(), NodeId{0});
  }
  std::span<const NodeId> eval_order =
      choices ? std::span<const NodeId>(id_order)
              : std::span<const NodeId>(order);

  // Optimal circuit delay: worst label over endpoints.
  for (const Output& o : cnet.outputs())
    result.optimal_delay = std::max(result.optimal_delay, result.label[o.node]);
  for (NodeId l : cnet.latches())
    result.optimal_delay =
        std::max(result.optimal_delay, result.label[cnet.fanins(l)[0]]);

  // `fastest` is not read again: hand its matches over instead of
  // deep-copying one Match (two heap vectors) per node.
  std::vector<std::optional<Match>> chosen = std::move(fastest);

  if (options.area_recovery) {
    obs::Scope scope("area_recovery");
    std::uint64_t labels_relaxed = 0;
    std::uint64_t nodes_reselected = 0;
    // Area flow (forward): af(n) estimates the per-use area of the best
    // cover of n's cone, amortizing multi-fanout nodes over their fanout
    // count — the standard heuristic for duplication-aware area costs.
    const auto& fanout = subject.fanout_counts();
    std::vector<double> area_flow(subject.size(), 0.0);
    auto match_area_flow = [&](const Match& m) {
      double af = m.gate->area;
      for (NodeId leaf : m.pin_binding)
        if (!subject.is_source(leaf))
          af += area_flow[leaf] / std::max<std::uint32_t>(1, fanout[leaf]);
      return af;
    };
    for (NodeId n : eval_order) {
      if (subject.is_source(n)) continue;
      double best = kInf;
      for (const Match& m : all_matches[n])
        best = std::min(best, match_area_flow(m));
      area_flow[n] = best;
    }

    // Required-time pass (backward): a needed node picks the feasible
    // match (arrival within its required time) of minimum area flow,
    // then tightens the required times of that match's leaves.
    std::vector<double> required(subject.size(), kInf);
    std::vector<bool> needed(subject.size(), false);
    double relax_to = std::max(result.optimal_delay, options.target_delay);
    auto endpoint = [&](NodeId n) {
      required[n] = std::min(required[n], relax_to);
      needed[n] = true;
    };
    for (const Output& o : cnet.outputs()) endpoint(o.node);
    for (NodeId l : cnet.latches()) endpoint(cnet.fanins(l)[0]);

    for (auto it = eval_order.rbegin(); it != eval_order.rend(); ++it) {
      NodeId n = *it;
      if (!needed[n] || subject.is_source(n)) continue;
      const Match* pick = nullptr;
      double pick_af = kInf;
      double pick_arrival = kInf;
      for (const Match& m : all_matches[n]) {
        double a = match_arrival(m, result.label);
        if (a > required[n] + options.epsilon) continue;
        double af = match_area_flow(m);
        if (af < pick_af - options.epsilon ||
            (af < pick_af + options.epsilon && a < pick_arrival)) {
          pick = &m;
          pick_af = af;
          pick_arrival = a;
        }
      }
      DAGMAP_ASSERT_MSG(pick != nullptr,
                        "required time unreachable during area recovery");
      ++nodes_reselected;
      if (pick_arrival > result.label[n] + options.epsilon) ++labels_relaxed;
      chosen[n] = *pick;
      for (std::size_t pin = 0; pin < pick->pin_binding.size(); ++pin) {
        NodeId leaf = pick->pin_binding[pin];
        double req = required[n] - pick->gate->pins[pin].delay();
        required[leaf] = std::min(required[leaf], req);
        if (!subject.is_source(leaf)) needed[leaf] = true;
      }
    }
    obs::counter_add("area_recovery.nodes_reselected", nodes_reselected);
    obs::counter_add("area_recovery.labels_relaxed", labels_relaxed);
  }

  // Cover: needed-instance marking (partition-parallel when the
  // partitioned schedule ran), then the sequential forward-topological
  // emission — identical instance order in both modes by construction.
  std::vector<std::uint8_t> needed;
  {
    obs::Scope scope("cover");
    {
      obs::Scope mark_scope("cover.mark");
      needed = use_partitions
                   ? mark_cover_partitioned(cnet, chosen, *parts, pool)
                   : (choices ? mark_cover(cnet, chosen, eval_order)
                              : mark_cover(subject, chosen));
    }
    result.netlist = emit_cover(cnet, chosen, needed);
  }

  // Duplication accounting: walk the used matches (the marked internal
  // nodes — the same reachability as the cover) and count how often each
  // subject node is covered.
  {
    obs::Scope scope("stats");
    std::vector<std::uint32_t> covered_count(subject.size(), 0);
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (!needed[n] || subject.is_source(n)) continue;
      for (NodeId c : chosen[n]->covered) ++covered_count[c];
    }
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (covered_count[n] == 0) continue;
      result.covered_instances += covered_count[n];
      ++result.covered_distinct;
      if (covered_count[n] >= 2) ++result.duplicated_nodes;
    }
    obs::counter_add("cover.nodes_duplicated", result.duplicated_nodes);
    obs::counter_add("cover.covered_instances", result.covered_instances);
  }

  if (choices) {
    result.choice_classes = pricing->num_classes();
    result.choice_variants = pricing->num_variants();
    result.choice_wins = pricing->num_wins();
    obs::counter_add("choices.classes", result.choice_classes);
    obs::counter_add("choices.variants", result.choice_variants);
    obs::counter_add("choices.wins", result.choice_wins);
  }

  result.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (options.profile) {
    if (own_session) obs::stop();
    result.profile = obs::collect();
  }
  return result;
}

}  // namespace dagmap
