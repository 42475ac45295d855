// Cover construction: turning a per-node match selection into a mapped
// netlist (§3.3 of the paper).
//
// Both mappers end with the same backward pass: starting from the primary
// outputs (and latch D inputs), create the selected gate at each needed
// node and recurse into the match leaves.  Subject nodes covered strictly
// inside matches never get instances of their own — under DAG covering
// this is exactly where logic duplication happens automatically, and
// under tree covering (exact matches) it never does.
//
// The selection is one `CoverSelection`: a flat record per subject node
// (gate, leaf offset and counts, input/output negation, writer id) whose
// `pin_binding` and `covered` lists live in per-writer `NodeId` arenas.
// The labeling workers write it in parallel, each appending to its own
// arena; the choice rewrite edits a pick's pins before it is committed,
// and the area rounds' backward pass re-sets records.
// A node's view — (gate, pins, covered, negations) — never depends on
// which writer wrote it or where in its arena, so the cover below is a
// function of the views alone (DESIGN.md "Selection layout").
//
// The pass is split in two, reachability and construction:
//   * `mark_cover` — reverse-topological "needed" marking: a node needs
//     an instance iff it drives a PO / latch D or is a leaf of a needed
//     node's selected match (constants included);
//   * `emit_cover` — one forward-topological sweep creating exactly the
//     marked instances.  The instance order is a function of the subject
//     graph alone, never of the marking schedule.
// `build_cover` composes the two (the sequential mappers' entry point).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mapnet/mapped_netlist.hpp"
#include "match/matcher.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// The selected implementation of one subject node, as the cover reads
/// it.  Spans point into the selection's arenas and stay valid until the
/// next `stage` by the writer that wrote the node.
struct SelectedMatch {
  const Gate* gate = nullptr;
  /// Subject node feeding gate pin i (the match leaves).
  std::span<const NodeId> pins;
  /// Internal subject nodes covered, root included; empty for NPN cut
  /// matches (the duplication statistics derive theirs).
  std::span<const NodeId> covered;
  /// Gate pin i reads the complement of pins[i] iff bit i is set.
  std::uint8_t input_negate = 0;
  /// The gate output is complemented (an inverter follows the gate).
  bool output_negate = false;
};

/// Per-subject-node selected match in flat form.
///
/// Writers are numbered [0, num_writers).  Each owns one arena and one
/// staging slot: `stage` overwrites the writer's pending pick at its
/// arena's tail (a running best costs no allocation once the arena has
/// grown), and `commit` makes the pending pick node n's selection.
/// Distinct writers may stage and commit concurrently for distinct
/// nodes; a writer's arena is touched only by that writer.  Re-setting a
/// node appends a fresh entry and leaves the old one as dead arena
/// space.
class CoverSelection {
 public:
  explicit CoverSelection(std::size_t num_nodes, unsigned num_writers = 1);

  std::size_t size() const { return records_.size(); }

  /// True once some pick was committed for `n`.
  bool has(NodeId n) const { return records_[n].gate != nullptr; }

  /// The committed selection of `n` (precondition: `has(n)`).
  SelectedMatch at(NodeId n) const;

  /// Stages a pick for `writer` and returns its `num_pins` pin slots,
  /// which the caller must fill.  `covered` is copied.
  std::span<NodeId> stage(unsigned writer, const Gate* gate,
                          std::size_t num_pins,
                          std::span<const NodeId> covered,
                          std::uint8_t input_negate = 0,
                          bool output_negate = false);

  /// Stages a structural match (pins and covered copied, no negation).
  void stage(unsigned writer, const MatchView& m);

  /// Pins of `writer`'s staged pick, writable (the choice rewrite).
  std::span<NodeId> staged_pins(unsigned writer);

  /// Makes `writer`'s staged pick the selection of `n`.
  void commit(NodeId n, unsigned writer);

  /// `stage` + `commit` of a structural match.
  void set(NodeId n, const MatchView& m, unsigned writer = 0) {
    stage(writer, m);
    commit(n, writer);
  }

 private:
  struct Record {
    const Gate* gate = nullptr;
    std::uint32_t offset = 0;  ///< first pin in arena `writer`
    std::uint32_t num_covered = 0;
    std::uint16_t writer = 0;
    std::uint16_t num_pins = 0;
    std::uint8_t input_negate = 0;
    bool output_negate = false;
  };
  /// One writer's storage, on its own cache lines: concurrent appends
  /// by different writers never share a line of vector bookkeeping.
  struct alignas(64) Arena {
    std::vector<NodeId> ids;
    /// End of the committed entries; the staged pick follows it.
    std::size_t committed = 0;
    Record staged;
  };

  std::vector<Record> records_;
  std::vector<Arena> arenas_;
};

/// Reverse-topological needed-instance marking: returns one flag per
/// subject node (1 = the cover instantiates it).  Marked nodes are the
/// internal nodes and constants reachable from the PO / latch-D drivers
/// through selected-match leaves; every marked internal node must have a
/// selection (else ContractError).
std::vector<std::uint8_t> mark_cover(const Network& subject,
                                     const CoverSelection& chosen);

/// `mark_cover` sweeping a caller-provided topological order instead of
/// the subject's Kahn order.  Choice covers need this: a selected match
/// can read a class-best variant that is not a structural fanin of its
/// root, so the only order under which every marker sits later in the
/// sweep is node-id (creation) order of the choice subject.  `order`
/// must list every node exactly once, match roots after their (possibly
/// re-pointed) leaves.
std::vector<std::uint8_t> mark_cover(const Network& subject,
                                     const CoverSelection& chosen,
                                     std::span<const NodeId> order);

/// Builds the mapped netlist for a precomputed `needed` marking (from
/// `mark_cover`): PIs and latch
/// placeholders first, then one forward-topological sweep over the
/// subject emitting each marked constant / selected gate.
///
/// `inverter` enables phase-aware selections (input / output negation,
/// produced by the NPN cut candidates): a negated pin reads a per-leaf
/// deduplicated inverter instance of the leaf, and a negated output gets
/// an inverter after the gate.  The instance order remains a pure
/// function of (subject, selected views, needed).  Null `inverter`
/// asserts that no selection carries negations (the structural mappers).
MappedNetlist emit_cover(const Network& subject, const CoverSelection& chosen,
                         std::span<const std::uint8_t> needed,
                         std::string name = {},
                         const Gate* inverter = nullptr);

/// Builds the mapped netlist implied by `chosen` (nodes that are never
/// needed may have no selection).  Every internal node reachable as a
/// PO/latch-D driver or as a leaf of a selected match must have one.
/// Equivalent to `emit_cover(subject, chosen, mark_cover(...))`.
MappedNetlist build_cover(const Network& subject, const CoverSelection& chosen,
                          std::string name = {},
                          const Gate* inverter = nullptr);

}  // namespace dagmap
