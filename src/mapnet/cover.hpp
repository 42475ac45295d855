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
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mapnet/mapped_netlist.hpp"
#include "match/matcher.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Reverse-topological needed-instance marking: returns one flag per
/// subject node (1 = the cover instantiates it).  Marked nodes are the
/// internal nodes and constants reachable from the PO / latch-D drivers
/// through selected-match leaves; every marked internal node must have a
/// `chosen` entry.
std::vector<std::uint8_t> mark_cover(
    const Network& subject, std::span<const std::optional<Match>> chosen);

/// `mark_cover` sweeping a caller-provided topological order instead of
/// the subject's Kahn order.  Choice covers need this: a selected match
/// can read a class-best variant that is not a structural fanin of its
/// root, so the only order under which every marker sits later in the
/// sweep is node-id (creation) order of the choice subject.  `order`
/// must list every node exactly once, match roots after their (possibly
/// re-pointed) leaves.
std::vector<std::uint8_t> mark_cover(
    const Network& subject, std::span<const std::optional<Match>> chosen,
    std::span<const NodeId> order);

/// Builds the mapped netlist for a precomputed `needed` marking (from
/// `mark_cover`): PIs and latch
/// placeholders first, then one forward-topological sweep over the
/// subject emitting each marked constant / selected gate.
///
/// `inverter` enables phase-aware matches (Match::input_negate /
/// output_negate, produced by the Boolean backends): a negated pin reads
/// a per-leaf deduplicated inverter instance of the leaf, and a negated
/// output gets an inverter after the gate.  The instance order remains a
/// pure function of (subject, chosen, needed).  Null `inverter` asserts
/// that no selected match carries negations (the structural mappers).
MappedNetlist emit_cover(const Network& subject,
                         std::span<const std::optional<Match>> chosen,
                         std::span<const std::uint8_t> needed,
                         std::string name = {},
                         const Gate* inverter = nullptr);

/// Builds the mapped netlist implied by `chosen`, a per-subject-node
/// selected match (indexed by NodeId; entries may be empty for nodes that
/// are never needed).  Every internal node reachable as a PO/latch-D
/// driver or as a leaf of a selected match must have a match.
/// Equivalent to `emit_cover(subject, chosen, mark_cover(...))`.
MappedNetlist build_cover(const Network& subject,
                          std::span<const std::optional<Match>> chosen,
                          std::string name = {},
                          const Gate* inverter = nullptr);

}  // namespace dagmap
