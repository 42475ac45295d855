// Technology decomposition: arbitrary logic networks -> NAND2/INV subject
// graphs (step 1 of every mapping flow in the paper).
//
// Each generic logic node's function is converted to an irredundant SOP
// (ISOP) and lowered with the shared AND/OR/NOT -> NAND2/INV routine —
// once per distinct function, then replayed for every node that has it
// (decomp/lowering_memo.hpp).  The builder hash-conses structurally
// identical nodes, collapses double inverters, and constant-propagates,
// so the resulting subject graph is a clean DAG.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/lowering.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Options for technology decomposition.
struct TechDecompOptions {
  /// Association shape for n-ary AND/OR lowering.
  DecompShape shape = DecompShape::Balanced;
};

/// Decomposes `src` into an equivalent NAND2/INV subject graph.  Primary
/// input/output and latch names are preserved; dead logic is dropped.
/// Postcondition: `result.is_subject_graph()`.
Network tech_decompose(const Network& src, const TechDecompOptions& options = {});

/// Builds NAND2/INV nodes into a `Network` with structural hashing,
/// double-inverter collapsing and constant propagation: the builder that
/// decomposition replays its recorded lowerings through
/// (decomp/lowering_memo.hpp).
class NetworkNandBuilder {
 public:
  /// `expected_nodes` sizes the strash table for about that many
  /// NAND2/INV nodes, so it need not grow while they are built.
  explicit NetworkNandBuilder(Network& net, std::size_t expected_nodes = 0);

  NodeId make_nand2(NodeId a, NodeId b);
  NodeId make_inv(NodeId a);
  NodeId make_const(bool value);

 private:
  /// One strash entry: a nonzero structural key, split in two words so
  /// that an entry is 12 bytes, and its node.
  struct Entry {
    std::uint32_t key_lo = 0, key_hi = 0;
    NodeId node = kNullNode;
  };

  /// The node of `key` (a nonzero structural key), or kNullNode to be
  /// filled in.
  NodeId& strash_slot(std::uint64_t key);
  void grow_strash(std::size_t capacity);

  Network& net_;
  /// Open-addressed table; key 0 marks an empty entry.
  std::vector<Entry> strash_;
  std::size_t strash_size_ = 0;
  NodeId const0_ = kNullNode;
  NodeId const1_ = kNullNode;
};

}  // namespace dagmap
