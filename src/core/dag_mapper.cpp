#include "core/dag_mapper.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "boolmatch/npn_index.hpp"
#include "core/choice_pricing.hpp"
#include "core/parallel.hpp"
#include "cutmap/cut_set.hpp"
#include "dagmap/load_rounds.hpp"
#include "mapnet/cover.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Arrival / area-flow slack treated as equal when comparing candidates.
constexpr double kEpsilon = 1e-9;

// One candidate implementation of a subject node: a structural match
// (`view` valid only during the enumeration callback) or an NPN cut
// match (cut leaves + the transform relating cut and gate functions).
struct Candidate {
  double arrival = 0.0;
  double area = 0.0;  ///< gate area plus materialized inverters
  const Gate* gate = nullptr;
  bool is_npn = false;
  const MatchView* view = nullptr;     ///< structural only
  std::span<const NodeId> cut_leaves;  ///< NPN only
  NpnTransform rel;                    ///< NPN only
};

// Writes a candidate into `m`, the owning Match the cover machinery
// consumes, reusing m's capacity.  NPN matches: gate pin i reads cut leaf
// rel.perm[i], negated iff bit i of rel.input_negate (same relation as
// boolmatch/bool_mapper.cpp).
void materialize(const Candidate& c, Match& m) {
  if (!c.is_npn) {
    m.assign(*c.view);
    return;
  }
  m.gate = c.gate;
  m.pattern = nullptr;
  unsigned ni = c.gate->num_inputs();
  m.pin_binding.resize(ni);
  for (unsigned pin = 0; pin < ni; ++pin)
    m.pin_binding[pin] = c.cut_leaves[c.rel.perm[pin]];
  m.covered.clear();
  m.input_negate =
      static_cast<std::uint8_t>(c.rel.input_negate & ((1u << ni) - 1u));
  m.output_negate = c.rel.output_negate;
}

std::string out_of_range(const char* what, double value, const char* want) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "bad %s %g (want %s)", what, value, want);
  return buf;
}

}  // namespace

std::string validate_map_options(const MapOptions& o) {
  if (o.cuts.size < 2 || o.cuts.size > kNpnMaxVars)
    return out_of_range("cut size", o.cuts.size, "2..4");
  if (o.cuts.count < 1 || o.cuts.count > 64)
    return out_of_range("cut count", o.cuts.count, "1..64");
  if (o.rounds < 1 || o.rounds > 16)
    return out_of_range("rounds", o.rounds, "1..16");
  if (o.load_rounds > 16)
    return out_of_range("load rounds", o.load_rounds, "0..16");
  if (!(o.delay_factor >= 1.0 && o.delay_factor <= 100.0))
    return out_of_range("delay factor", o.delay_factor, "1..100");
  const MapOptions::Cuts defaults;
  if (o.source == CandidateSource::Structural &&
      (o.cuts.size != defaults.size || o.cuts.count != defaults.count))
    return "cut size and cut count apply to the cuts backend";
  if (o.rounds == 1 && !o.area_recovery &&
      (o.delay_factor != 1.0 || o.target_delay > 0.0))
    return "a delay factor or target applies only to area recovery "
           "(rounds > 1 or area recovery on)";
  return {};
}

MapResult map(const Network& subject, const GateLibrary& lib,
              const MapOptions& options) {
  if (options.load_rounds > 0) {
    // Iterated load-aware flow (dagmap/load_rounds.hpp): each round is
    // one plain `map` against a re-priced library.  The pattern
    // pre-index is index-based and shape-compatible with every re-priced
    // copy, so it is reused as-is; the NPN index holds Gate pointers
    // into the *original* library, so re-priced rounds rebuild it (gate
    // functions are unchanged and delays do not enter NPN canonization,
    // so the rebuilt index is identical).
    MapOptions inner = options;
    inner.load_rounds = 0;
    bool own_session = options.profile && !obs::enabled();
    if (own_session) obs::start();
    MapResult r = map_with_load_rounds(
        lib, options.load_rounds, options.load_model, kEpsilon,
        [&](const GateLibrary& round_lib) {
          MapOptions round = inner;
          if (&round_lib != &lib) round.npn_index = nullptr;
          return map(subject, round_lib, round);
        });
    if (options.profile) {
      if (own_session) obs::stop();
      r.profile = obs::collect();
    }
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  const bool use_cuts = options.source == CandidateSource::Cuts;
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "mapping requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(lib.is_complete_for_mapping(),
                    "library must contain INV and NAND2");
  DAGMAP_ASSERT(!use_cuts || (options.cuts.size >= 2 &&
                              options.cuts.size <= kNpnMaxVars &&
                              options.cuts.count >= 1));

  // Own a profiling session unless the caller (CLI, bench harness)
  // already has one spanning a wider pipeline.
  bool own_session = options.profile && !obs::enabled();
  if (own_session) obs::start();

  const Gate* inv_gate = lib.inverter();
  const double inv_delay = inv_gate->pins[0].delay();
  const double inv_area = inv_gate->area;

  // The NPN library index (boolmatch/npn_index.hpp), for the cut source
  // only: built per call unless serve mode / the compiled-library cache
  // passes one in.
  std::optional<NpnLibraryIndex> owned_npn;
  const NpnLibraryIndex* npn = options.npn_index;
  if (use_cuts && !npn) {
    obs::Scope scope("cutmap.npn_index");
    npn = &owned_npn.emplace(lib);
  }

  MapResult result;
  Matcher matcher = [&] {
    obs::Scope scope("match.build");
    return Matcher(lib, subject,
                   {.use_signature_index = options.use_signature_index},
                   options.pattern_index);
  }();
  obs::counter_add("library.patterns", lib.total_patterns());
  if (use_cuts) obs::counter_add("cutmap.npn_gates", npn->num_entries());

  // Per-node state, the depth-wavefront schedule and the worker pool,
  // timed as one phase.
  std::optional<obs::Scope> schedule_scope(std::in_place, "schedule");
  result.label.assign(subject.size(), 0.0);

  // Choice-aware leaf pricing (core/choice_pricing.hpp): constructed
  // only for an active annotation, so the unannotated flow never
  // touches the hook and stays bit-identical to the historical mapper.
  const ChoiceClasses* choices =
      options.choices && options.choices->active() ? options.choices : nullptr;
  std::optional<ChoicePricing> pricing;
  if (choices) pricing.emplace(subject, *choices, result.label);

  // Cut source state: each node's priority cuts and the area-flow
  // estimate of its selected cover (the cut-ranking input).  The
  // structural source allocates neither.
  std::vector<double> node_af;
  std::vector<CutSet> cuts;
  if (use_cuts) {
    node_af.assign(subject.size(), 0.0);
    cuts.resize(subject.size());
  }
  std::vector<std::optional<Match>> fastest(subject.size());

  const auto& order = subject.topo_order();
  const auto& fanout = subject.fanout_counts();
  PriorityCutParams cut_params{options.cuts.size, options.cuts.count};

  // Depth wavefronts: every leaf of a candidate rooted at level L is a
  // strict transitive fanin (level < L), so one level's nodes read only
  // finished labels and label independently.
  std::vector<std::vector<NodeId>> waves;
  if (choices) {
    // Choice subjects level over the augmented edges of the
    // anchor-scheduling contract, so every class fold completes a wave
    // before its first per-class reader.
    waves = choice_wavefronts(subject, *choices);
  } else {
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
  ThreadPool pool(num_threads);
  struct alignas(64) WorkerState {
    CutScratch scratch;
    /// Flat per-worker canonicalization memo (lazy 64K tables): a node's
    /// cut functions concentrate into few NPN classes, so the 768-
    /// transform scan runs once per distinct table per worker.
    std::vector<std::int32_t> canon;
    std::vector<NpnTransform> canon_t;
    std::uint64_t enumerated = 0;
    /// Running best candidate of the node being labeled, overwritten in
    /// place on every improvement; only the final pick is copied out
    /// (one `Match` per node).
    Match best;
  };
  std::vector<WorkerState> workers(num_threads);
  schedule_scope.reset();

  auto canon_of = [&](std::uint16_t tt, WorkerState& w)
      -> std::pair<std::uint16_t, const NpnTransform&> {
    if (w.canon.empty()) {
      w.canon.assign(std::size_t{1} << 16, -1);
      w.canon_t.resize(std::size_t{1} << 16);
    }
    if (w.canon[tt] < 0) w.canon[tt] = npn_canonical(tt, &w.canon_t[tt]);
    return {static_cast<std::uint16_t>(w.canon[tt]), w.canon_t[tt]};
  };

  // Candidates at a node: structural matches first, then (cut source)
  // NPN matches of every stored non-trivial cut.  Per-node enumeration
  // order is deterministic (matcher order, then cut rank order, then
  // library order), independent of thread count and schedule.
  auto for_each_candidate = [&](NodeId n, WorkerState& w, auto&& cb) {
    matcher.for_each_match(n, options.match_class, [&](const MatchView& m) {
      ++w.enumerated;
      Candidate c;
      c.arrival = choices ? pricing->match_arrival(m, n)
                          : match_arrival(m, result.label);
      c.area = m.gate->area;
      c.gate = m.gate;
      c.view = &m;
      cb(c);
    });
    if (!use_cuts) return;
    const CutSet& cs = cuts[n];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      CutSet::View cut = cs.cut(i);
      if (cut.leaves.size() == 1 && cut.leaves[0] == n) continue;  // trivial
      if (cut.tt == 0x0000 || cut.tt == 0xFFFF) continue;  // constant cone
      auto [canon, to_canon] = canon_of(cut.tt, w);
      const std::vector<NpnLibEntry>* bucket = npn->find(canon);
      if (!bucket) continue;
      NpnTransform from_canon = npn_inverse(to_canon);
      for (const NpnLibEntry& e : *bucket) {
        ++w.enumerated;
        // cut tt == npn_apply(gate tt, rel) with
        // rel = compose(gate->canonical, inverse(cut->canonical)).
        NpnTransform rel = npn_compose(e.to_canonical, from_canon);
        unsigned ni = e.gate->num_inputs();
        double arrival = 0.0;
        double area = e.gate->area;
        bool valid = true;
        for (unsigned pin = 0; pin < ni; ++pin) {
          unsigned leaf_idx = rel.perm[pin];
          if (leaf_idx >= cut.leaves.size()) {
            // Pin bound to a padded variable: impossible for full-support
            // gates when the (support-reduced) tables match.
            valid = false;
            break;
          }
          double a = choices ? pricing->leaf_price(n, cut.leaves[leaf_idx])
                             : result.label[cut.leaves[leaf_idx]];
          if ((rel.input_negate >> pin) & 1u) {
            a += inv_delay;
            area += inv_area;
          }
          arrival = std::max(arrival, a + e.gate->pins[pin].delay());
        }
        if (!valid) continue;
        if (rel.output_negate) {
          arrival += inv_delay;
          area += inv_area;
        }
        Candidate c;
        c.arrival = arrival;
        c.area = area;
        c.gate = e.gate;
        c.is_npn = true;
        c.cut_leaves = cut.leaves;
        c.rel = rel;
        cb(c);
      }
    }
  };

  // Pin leaves as the cover will read them: the class-best variant
  // beyond a class anchor (matching `ChoicePricing::rewrite` and the
  // refs counted from rewritten selections), the raw leaf otherwise.
  auto priced_leaf = [&](NodeId n, NodeId leaf) {
    return choices ? pricing->price_node(n, leaf) : leaf;
  };
  auto for_each_pin_leaf = [&](NodeId n, const Candidate& c, auto&& fn) {
    if (c.is_npn) {
      unsigned ni = c.gate->num_inputs();
      for (unsigned pin = 0; pin < ni; ++pin)
        fn(priced_leaf(n, c.cut_leaves[c.rel.perm[pin]]));
    } else {
      for (NodeId leaf : c.view->pin_binding) fn(priced_leaf(n, leaf));
    }
  };

  // Runs `body(node, worker)` over every internal node with all fanins
  // settled: the waves in order, a barrier between waves.
  auto run_schedule = [&](auto&& body, const char* trace) {
    for (const std::vector<NodeId>& wave : waves)
      pool.parallel_for(
          wave.size(),
          [&](std::size_t i, unsigned worker) { body(wave[i], worker); },
          trace);
  };

  // Fold-time cut merge: when a class anchor labels, the union of every
  // member's non-trivial cuts replaces the anchor's own stored set — the
  // slot readers' cut enumeration actually consults (post-burst
  // structure references anchors).  Every reader of cuts[anchor] runs in
  // a wave strictly after the anchor's (the augmented leveling), and
  // every merged leaf lies inside some member's cone, hence below every
  // member's level, so both the overwrite and the later leaf reads are
  // race-free.  Deduped by (leaves, tt), ranked (worst leaf label, leaf
  // count, leaves) like the priority ranking, capped at cuts.count; the
  // anchor's trivial self-cut stays last.
  auto merge_class_cuts = [&](NodeId anchor) {
    std::span<const NodeId> mem = choices->members(anchor);
    struct MergedCut {
      std::vector<NodeId> leaves;
      std::uint16_t tt;
      double arrival;
    };
    std::vector<MergedCut> merged;
    for (NodeId m : mem) {
      const CutSet& cs = cuts[m];
      for (std::size_t i = 0; i < cs.size(); ++i) {
        CutSet::View cut = cs.cut(i);
        if (cut.leaves.size() == 1 && cut.leaves[0] == m) continue;  // trivial
        bool dup = false;
        for (const MergedCut& mc : merged)
          if (mc.tt == cut.tt && std::ranges::equal(mc.leaves, cut.leaves)) {
            dup = true;
            break;
          }
        if (dup) continue;
        double arrival = 0.0;
        for (NodeId leaf : cut.leaves)
          arrival = std::max(arrival, result.label[leaf]);
        merged.push_back({{cut.leaves.begin(), cut.leaves.end()}, cut.tt,
                          arrival});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const MergedCut& a, const MergedCut& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                if (a.leaves.size() != b.leaves.size())
                  return a.leaves.size() < b.leaves.size();
                if (a.leaves != b.leaves) return a.leaves < b.leaves;
                return a.tt < b.tt;
              });
    if (merged.size() > options.cuts.count) merged.resize(options.cuts.count);
    CutSet out;
    for (const MergedCut& mc : merged) out.add(mc.leaves, mc.tt);
    const CutSet& old_anchor = cuts[anchor];
    for (std::size_t i = 0; i < old_anchor.size(); ++i) {
      CutSet::View cut = old_anchor.cut(i);
      if (cut.leaves.size() == 1 && cut.leaves[0] == anchor)
        out.add(cut.leaves, cut.tt);  // the trivial self-cut, kept last
    }
    cuts[anchor] = std::move(out);
  };

  // ---- labeling: (priority cuts +) delay-optimal selection, fused -----
  {
    obs::Scope scope("label");
    run_schedule(
        [&](NodeId n, unsigned worker) {
          WorkerState& w = workers[worker];
          if (use_cuts)
            compute_priority_cuts(subject, n, cuts, cut_params,
                                  {result.label, node_af, fanout}, w.scratch,
                                  cuts[n]);
          double best = kInf, best_area = kInf;
          const Gate* best_gate = nullptr;
          for_each_candidate(n, w, [&](const Candidate& c) {
            // Primary criterion: arrival.  Tie-break: implementation area
            // (inverters included), so the delay-optimal mapping does not
            // pick needlessly big gates; then gate name, so the selection
            // is independent of thread count; further ties resolve
            // first-wins in the deterministic per-node enumeration order.
            bool take = c.arrival < best - kEpsilon;
            if (!take && c.arrival < best + kEpsilon) {
              take = c.area < best_area ||
                     (c.area == best_area && best_gate != nullptr &&
                      c.gate->name < best_gate->name);
            }
            if (take) {
              best = c.arrival;
              best_area = c.area;
              best_gate = c.gate;
              materialize(c, w.best);
            }
          });
          DAGMAP_ASSERT_MSG(best_gate != nullptr,
                            "no candidate at an internal subject node");
          fastest[n] = w.best;
          result.label[n] = best;
          if (choices) {
            // Re-point the selected match's classed leaves at the
            // class-best variants (folded in an earlier wave by the
            // anchor rule), so all downstream passes price and descend
            // through plain label[] reads.  Then fold this node's own
            // class if it is the anchor.
            pricing->rewrite(*fastest[n], n);
            pricing->on_labeled(n);
            if (use_cuts && choices->is_class_anchor(n)) merge_class_cuts(n);
          }
          if (use_cuts) {
            double af = best_area;
            for (NodeId leaf : fastest[n]->pin_binding)
              if (!subject.is_source(leaf))
                af += node_af[leaf] / std::max<std::uint32_t>(1, fanout[leaf]);
            node_af[n] = af;
          }
        },
        "label.wave");
    for (const WorkerState& w : workers)
      result.matches_enumerated += w.enumerated;
    result.match_attempts = matcher.attempts();
    result.match_prunes = matcher.pruned();
    result.truncations = matcher.truncations();
    if (obs::enabled()) {
      obs::counter_add("label.waves", waves.size());
      obs::counter_add("label.nodes", subject.num_internal());
      obs::counter_add("match.enumerated", result.matches_enumerated);
      obs::counter_add("match.walks", result.match_attempts);
      MatchStats ms = matcher.stats();
      obs::counter_add("match.memo_lists", ms.memo_lists);
      obs::counter_add("match.memo_hits", ms.memo_hits);
      obs::counter_add("match.pruned", result.match_prunes);
      obs::counter_add("match.truncations", result.truncations);
      if (use_cuts) {
        std::size_t total_cuts = 0, cut_bytes = 0;
        for (const CutSet& cs : cuts) {
          total_cuts += cs.size();
          cut_bytes += cs.memory_bytes();
        }
        obs::counter_add("cutmap.cuts", total_cuts);
        obs::counter_add("cutmap.cut_bytes", cut_bytes);
      }
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

  // ---- area-recovery rounds (abc-zz LutMap's n_rounds/delay_factor) ---
  unsigned rounds = std::max(options.rounds, options.area_recovery ? 2u : 1u);
  // Among candidates of equal area flow, `area_recovery` alone (the §6
  // pass: one round) prefers a strictly earlier arrival and otherwise
  // keeps the first in enumeration order; `rounds` (LutMap) compares
  // arrivals within epsilon, then area, then gate name.  Each knob keeps
  // its own tie because either tie moves the other's covers (DESIGN.md
  // §14).
  const bool first_wins = options.rounds <= 1;
  if (rounds > 1) {
    obs::Scope scope(first_wins ? "area_recovery" : "rounds");
    double target =
        std::max(result.optimal_delay * std::max(1.0, options.delay_factor),
                 options.target_delay);
    // Reference counts: subject fanouts for the first area round, the
    // previous round's cover references afterwards.
    std::vector<std::uint32_t> refs(fanout.begin(), fanout.end());
    std::vector<double> area_flow(subject.size(), 0.0);
    std::vector<double> required(subject.size(), kInf);
    std::vector<std::uint8_t> rneeded(subject.size(), 0);

    for (unsigned r = 1; r < rounds; ++r) {
      // Forward pass: minimum area flow over all candidates per node,
      // amortizing leaf costs over the round's reference counts.
      run_schedule(
          [&](NodeId n, unsigned worker) {
            double best = kInf;
            for_each_candidate(n, workers[worker], [&](const Candidate& c) {
              double af = c.area;
              for_each_pin_leaf(n, c, [&](NodeId leaf) {
                if (!subject.is_source(leaf))
                  af += area_flow[leaf] /
                        std::max<std::uint32_t>(1, refs[leaf]);
              });
              best = std::min(best, af);
            });
            area_flow[n] = best;
          },
          "rounds.area_flow");

      // Backward pass: needed nodes re-select the minimum-area-flow
      // candidate meeting their required time, then tighten the leaves'
      // required times.  The fastest candidate always qualifies
      // (required >= label holds inductively from target >= optimal), so
      // the delay bound survives every round.
      std::fill(required.begin(), required.end(), kInf);
      std::fill(rneeded.begin(), rneeded.end(), 0);
      auto endpoint = [&](NodeId n) {
        required[n] = std::min(required[n], target);
        if (!subject.is_source(n)) rneeded[n] = 1;
      };
      for (const Output& o : cnet.outputs()) endpoint(o.node);
      for (NodeId l : cnet.latches()) endpoint(cnet.fanins(l)[0]);

      std::uint64_t reselected = 0;
      for (auto it = eval_order.rbegin(); it != eval_order.rend(); ++it) {
        NodeId n = *it;
        if (!rneeded[n]) continue;
        double pick_af = kInf, pick_arrival = kInf, pick_area = kInf;
        const Gate* pick_gate = nullptr;
        bool have = false;
        Match pick;
        for_each_candidate(n, workers[0], [&](const Candidate& c) {
          if (c.arrival > required[n] + kEpsilon) return;
          double af = c.area;
          for_each_pin_leaf(n, c, [&](NodeId leaf) {
            if (!subject.is_source(leaf))
              af += area_flow[leaf] / std::max<std::uint32_t>(1, refs[leaf]);
          });
          bool take = !have || af < pick_af - kEpsilon;
          if (!take && af < pick_af + kEpsilon && first_wins) {
            take = c.arrival < pick_arrival;
          } else if (!take && af < pick_af + kEpsilon) {
            take = c.arrival < pick_arrival - kEpsilon;
            if (!take && c.arrival < pick_arrival + kEpsilon)
              take = c.area < pick_area ||
                     (c.area == pick_area && pick_gate != nullptr &&
                      c.gate->name < pick_gate->name);
          }
          if (take) {
            have = true;
            pick_af = af;
            pick_arrival = c.arrival;
            pick_area = c.area;
            pick_gate = c.gate;
            materialize(c, pick);
          }
        });
        DAGMAP_ASSERT_MSG(have,
                          "required time unreachable during an area round");
        if (choices) pricing->rewrite(pick, n);
        ++reselected;
        for (std::size_t pin = 0; pin < pick.pin_binding.size(); ++pin) {
          NodeId leaf = pick.pin_binding[pin];
          double req = required[n] - pick.gate->pins[pin].delay();
          if (pick.output_negate) req -= inv_delay;
          if ((pick.input_negate >> pin) & 1u) req -= inv_delay;
          required[leaf] = std::min(required[leaf], req);
          if (!subject.is_source(leaf)) rneeded[leaf] = 1;
        }
        chosen[n] = std::move(pick);
      }
      obs::counter_add("rounds.nodes_reselected", reselected);

      if (r + 1 < rounds) {
        std::fill(refs.begin(), refs.end(), 0);
        for (NodeId n = 0; n < subject.size(); ++n) {
          if (!rneeded[n]) continue;
          for (NodeId leaf : chosen[n]->pin_binding) ++refs[leaf];
        }
      }
    }
  }

  // Cover: needed-instance marking, then the forward-topological
  // emission.  The inverter materializes NPN matches' negations.
  std::vector<std::uint8_t> needed;
  {
    obs::Scope scope("cover");
    {
      obs::Scope mark_scope("cover.mark");
      needed = choices ? mark_cover(cnet, chosen, eval_order)
                       : mark_cover(subject, chosen);
    }
    result.netlist = emit_cover(cnet, chosen, needed, {}, inv_gate);
  }

  // Duplication accounting: walk the used matches (the marked internal
  // nodes — the same reachability as the cover) and count how often each
  // subject node is covered.
  {
    obs::Scope scope("stats");
    std::vector<std::uint32_t> covered_count(subject.size(), 0);
    std::vector<NodeId> walk;
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (!needed[n] || subject.is_source(n)) continue;
      Match& m = *chosen[n];
      if (m.covered.empty()) {
        // NPN matches carry no covered list; derive one by walking the
        // cone from the root down to the pin leaves.  Support-reduced
        // cuts can expose structurally large vacuous cones, so the walk
        // is capped — this feeds statistics only, never the cover.
        walk.assign(1, n);
        while (!walk.empty() && m.covered.size() < 256) {
          NodeId u = walk.back();
          walk.pop_back();
          if (std::find(m.covered.begin(), m.covered.end(), u) !=
              m.covered.end())
            continue;
          m.covered.push_back(u);
          for (NodeId f : subject.fanins(u)) {
            if (subject.is_source(f)) continue;
            if (std::find(m.pin_binding.begin(), m.pin_binding.end(), f) ==
                m.pin_binding.end())
              walk.push_back(f);
          }
        }
      }
      for (NodeId c : m.covered) ++covered_count[c];
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
