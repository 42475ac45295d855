// First-class choice classes over a subject graph (Lehman–Watanabe).
//
// A choice class groups structurally distinct but functionally
// equivalent subject nodes — alternative technology decompositions of
// the same source signal.  The classes are a *property of the subject
// graph*, owned next to the `Network` the way the `TopologyCache` is
// (mockturtle's `choice_view` takes the same stance): every consumer of
// the subject — the structural DAG mapper, the priority-cut mapper, the
// wavefront scheduler, the cover machinery — sees one `ChoiceClasses`
// and prices match/cut leaves per class instead of per node.  Matches and cuts
// never cross a class boundary (ABC's restriction): a variant is an
// opaque alternative, selected wholesale by re-pointing leaves at the
// class-best variant at cover time.
//
// Scheduling contract.  Choice subjects are created in topological id
// order, and all variants of one class are lowered in one contiguous
// *burst* of fresh node ids.  The class *anchor* is the member with the
// largest id.  Class-best labels are folded exactly once, when the
// anchor labels; the scheduling rule that makes this deterministic and
// race-free at any thread count is:
//
//   * a reader n prices leaf x per-class iff x is classed and
//     n > anchor(class(x)) — a static id comparison;
//   * dependency edges f -> n with n > anchor(f) are re-attributed to
//     anchor(f) -> n for leveling, and every non-anchor
//     member gets an edge onto its anchor,
//
// so every per-class reader is scheduled strictly after the fold, and
// every in-burst reader (sibling-variant structure reaching a member
// through strash sharing) reads the member's own settled label.  The
// `anchor()` map covers the whole burst id range, not just the members,
// which is what certifies match leaves reached through shared interior
// nodes.  See DESIGN.md §16.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/network.hpp"

namespace dagmap {

/// Choice-class bookkeeping for one subject graph.  Default-constructed
/// (or choice-free) instances are inert: every query degenerates to the
/// identity and mappers take their historical bit-identical paths.
class ChoiceClasses {
 public:
  /// True iff at least one class has more than one variant.
  bool active() const { return !classes_.empty(); }

  /// Classes with more than one variant.
  std::size_t num_choices() const { return classes_.size(); }

  /// Extra variants beyond one per class, summed over all classes.
  std::size_t num_variants() const { return num_variants_; }

  /// Nodes covered by the bookkeeping arrays (subject size after
  /// `finalize`; queries beyond it are identity).
  std::size_t size() const { return repr_.size(); }

  /// Representative (smallest-id member) of n's class; n itself when
  /// unclassed.  Pure bookkeeping — the node consumers structurally
  /// reference is the class *anchor* (see below), which every member
  /// precedes in id order.
  NodeId repr(NodeId n) const { return n < repr_.size() ? repr_[n] : n; }

  /// Schedule anchor of n: the largest-id member of the class whose
  /// creation burst produced n (members and burst-interior nodes alike);
  /// n itself outside any burst.  The anchor is the class's canonical
  /// node: consumers and endpoints structurally reference it, class
  /// folds happen when it labels, and readers beyond it price per
  /// class.
  NodeId anchor(NodeId n) const { return n < anchor_.size() ? anchor_[n] : n; }

  /// The node a consumer should structurally reference for n: the class
  /// anchor when n is a *member* (every member computes the class
  /// function, so the substitution is sound), n itself otherwise — in
  /// particular burst-interior nodes keep their own identity, since they
  /// compute sub-functions of a variant, not the class function.  Safe
  /// mid-construction: nodes the bookkeeping has not reached yet are
  /// their own canonical node.
  NodeId canonical(NodeId n) const {
    return n < class_of_.size() && class_of_[n] != kNoClass ? anchor_[n] : n;
  }

  /// True iff n is the anchor member of a multi-variant class (the fold
  /// point of that class).
  bool is_class_anchor(NodeId n) const {
    return n < class_of_.size() && class_of_[n] != kNoClass &&
           anchor_[n] == n;
  }

  /// Members of n's class, ascending id (representative first, anchor
  /// last); empty span when n is unclassed.
  std::span<const NodeId> members(NodeId n) const {
    if (n >= class_of_.size() || class_of_[n] == kNoClass) return {};
    return classes_[class_of_[n]];
  }

  // --- construction (decomp/choices.cpp) ------------------------------

  /// Opens a variant burst: `first_new_node` is the subject size before
  /// the first variant is lowered.  Nodes created from here on belong to
  /// the burst.
  void begin_burst(NodeId first_new_node);

  /// Registers one variant root of the open burst.  Roots that strash
  /// below the burst start are skipped — class members must be fresh
  /// burst nodes so the anchor bounds every member-cone id.  A root that
  /// strashes onto an earlier sibling's *interior* is kept: it is a
  /// fresh, functionally equivalent burst node.  Duplicates are ignored.
  void add_member(NodeId root);

  /// Closes the burst.  With >= 2 surviving members a class is recorded,
  /// the burst id range [begin, anchor] is mapped onto the anchor, and
  /// the anchor — the node consumers must structurally reference — is
  /// returned.  Returns kNullNode when no class formed (the caller
  /// falls back to the first lowered root).
  NodeId end_burst();

  /// Sizes the identity maps to the finished subject.  Must be called
  /// after the last burst, before any query.
  void finalize(std::size_t num_nodes);

  /// Re-derives every structural invariant against `subject` and throws
  /// `ContractError` on the first violation: identity/mutual consistency
  /// of repr/members/anchor, members internal and ascending with the
  /// representative first and the anchor last, topological creation
  /// order (every internal fanin id below its reader — the property the
  /// anchor scheduling rule rests on), and every PO / latch D input
  /// referencing a class anchor, never a dangling non-canonical variant.
  void validate(const Network& subject) const;

 private:
  static constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

  std::vector<NodeId> repr_;              ///< identity default
  std::vector<NodeId> anchor_;            ///< identity default
  std::vector<std::uint32_t> class_of_;   ///< kNoClass default
  std::vector<std::vector<NodeId>> classes_;
  std::size_t num_variants_ = 0;

  NodeId burst_start_ = kNullNode;
  std::vector<NodeId> burst_members_;

  void grow(std::size_t n);
};

}  // namespace dagmap
