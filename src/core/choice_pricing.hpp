// Choice-aware leaf pricing — the single hook both mapping backends,
// the wavefront scheduler, and the load-aware rounds consume when the
// subject carries a `ChoiceClasses` annotation
// (netlist/choice_classes.hpp).
//
// The hook owns three responsibilities:
//
//   * *pricing*: a match/cut leaf x read by node n is charged
//     label(best variant of x's class) iff n lies beyond the class
//     anchor (n > anchor(x)), else x's own label — the static id
//     comparison of the anchor-scheduling contract;
//   * *folding*: when a class anchor labels, `on_labeled` folds the
//     class once — the member with the smallest label wins (plain <,
//     first-by-id on ties), deterministically at any thread count;
//   * *rewriting*: a selected match beyond the anchor re-points its
//     classed leaves at the class-best variant (`rewrite`), and the
//     endpoint redirect (`redirect_endpoints`) moves POs / latch D
//     inputs from the class anchor onto the winner, so every
//     downstream pass — area recovery, rounds, cover marking and
//     emission — prices and descends through plain `label[]` reads with
//     no further choice awareness.
//
// `choice_wavefronts` builds the labeling schedule under the contract's
// edge re-attribution: an edge f -> n with n > anchor(f) levels against
// anchor(f), and every member levels its anchor, so class folds are
// complete before the first per-class reader runs.  With a null/inert
// `ChoiceClasses` the hook is never constructed and the mappers take
// their historical bit-identical paths.  See DESIGN.md §16.
#pragma once

#include <span>
#include <vector>

#include "match/matcher.hpp"
#include "netlist/choice_classes.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Per-run choice pricing state.  Constructed over the mapper's label
/// array (held by reference: prices always reflect the labels written so
/// far) after the array is sized, before labeling starts.
class ChoicePricing {
 public:
  ChoicePricing(const Network& subject, const ChoiceClasses& classes,
                const std::vector<double>& label);

  const ChoiceClasses& classes() const { return classes_; }

  /// Price of leaf `leaf` as seen by reader `reader`: the class-best
  /// label beyond the anchor, the leaf's own label otherwise.
  double leaf_price(NodeId reader, NodeId leaf) const {
    return label_[price_node(reader, leaf)];
  }

  /// `match_arrival` with per-class leaf prices (reader = match root).
  double match_arrival(const MatchView& m, NodeId reader) const {
    double arrival = 0.0;
    for (std::size_t pin = 0; pin < m.pin_binding.size(); ++pin) {
      double a = leaf_price(reader, m.pin_binding[pin]) +
                 m.gate->pins[pin].delay();
      arrival = std::max(arrival, a);
    }
    return arrival;
  }

  /// Node whose label prices `leaf` for `reader`: the class-best variant
  /// beyond the anchor, `leaf` itself otherwise.  Identity for unclassed
  /// leaves (their best-variant entry is themselves).
  NodeId price_node(NodeId reader, NodeId leaf) const {
    return reader > classes_.anchor(leaf) ? best_[leaf] : leaf;
  }

  /// Fold hook: call once per node right after its label is written.
  /// At a class anchor this folds the class (records the best variant
  /// for every member); elsewhere it is a no-op.  Safe to call
  /// concurrently for distinct nodes — a fold touches only its own
  /// class's entries, and every reader of those entries is scheduled in
  /// a strictly later wave.
  void on_labeled(NodeId n);

  /// Class-best variant of n (valid once n's class has folded);
  /// n itself when unclassed.
  NodeId best_variant(NodeId n) const { return best_[n]; }

  /// Re-points the match's classed leaves (as priced by `reader`) at the
  /// class-best variants, making the match self-describing for every
  /// downstream `label[]`-based pass.
  void rewrite(Match& m, NodeId reader) const;

  /// Copy of `subject` with every PO / latch D input moved from the
  /// class anchor onto the class-best variant.  Cover marking and
  /// emission run on the returned network.
  Network redirect_endpoints(const Network& subject) const;

  /// Members to fold auxiliary per-node state over (cut sets, in the
  /// priority-cut backend) when n is a class anchor; empty otherwise.
  std::span<const NodeId> fold_members(NodeId n) const {
    return classes_.is_class_anchor(n) ? classes_.members(n)
                                       : std::span<const NodeId>{};
  }

  // Stats for MapResult.
  std::size_t num_classes() const { return classes_.num_choices(); }
  std::size_t num_variants() const { return classes_.num_variants(); }
  /// Classes whose fold picked a variant other than the referenced
  /// anchor (derived from the fold results, so it carries no shared
  /// mutable counter — folds of distinct classes stay race-free).
  std::size_t num_wins() const;

 private:
  const ChoiceClasses& classes_;
  const std::vector<double>& label_;
  /// Class-best variant per node; identity until the class folds (and
  /// forever, for unclassed nodes).
  std::vector<NodeId> best_;
};

/// Depth wavefronts for labeling a choice subject: id-order leveling
/// with the contract's edge re-attribution (reader beyond an anchor
/// levels against the anchor; members level their anchor), so every
/// per-class price read happens in a wave strictly after the fold.
/// Internal nodes only, ascending id within each wave.
std::vector<std::vector<NodeId>> choice_wavefronts(
    const Network& subject, const ChoiceClasses& classes);

}  // namespace dagmap
