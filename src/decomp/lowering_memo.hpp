// Lower each distinct node function once, then replay it per node.
//
// Technology decomposition lowers every logic node of a network through
// an ISOP, an expression and `lower_expr`.  Nodes with the same truth
// table make the same sequence of sink calls — only the leaves differ —
// so `LoweringMemo` lowers each distinct table (and each of its choice
// variants) once into a `NandRecording`: the sink calls with operands as
// indices of earlier calls and leaves as fanin indices.  Replaying a
// recording through a `NetworkNandBuilder` makes exactly the calls the
// lowering would have made, in the same order, so strash and its
// simplifications build the same subject graph.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "decomp/lowering.hpp"
#include "decomp/tech_decomp.hpp"

namespace dagmap {

/// The sink calls of one `lower_expr` run.
struct NandRecording {
  enum class Kind : std::uint8_t { Leaf, Const0, Const1, Inv, Nand2 };
  /// Leaf: `a` is the fanin index.  Inv: `a`, Nand2: `a` and `b` are
  /// indices of earlier calls.
  struct Call {
    Kind kind;
    std::uint32_t a = 0, b = 0;
  };
  std::vector<Call> calls;
  std::uint32_t root = 0;  ///< the call whose result the lowering returned

  /// Makes the recorded calls on `builder`, leaf i being `fanins[i]`;
  /// returns the root node.  `values` is scratch.
  NodeId replay(NetworkNandBuilder& builder, std::span<const NodeId> fanins,
                std::vector<NodeId>& values) const;
};

/// The recorded lowerings of every distinct function one decomposition
/// meets, computed on first use.
class LoweringMemo {
 public:
  /// What to lower for function `f` over variables named `vars`
  /// ("v0", "v1", ...): expressions and their shapes, in lowering order.
  using Variants = std::function<std::vector<std::pair<Expr, DecompShape>>(
      const TruthTable& f, const std::vector<std::string>& vars)>;

  explicit LoweringMemo(Variants variants) : variants_(std::move(variants)) {}

  /// The recordings of `f`'s variants, in order.
  std::span<const NandRecording> get(const TruthTable& f);

  /// Distinct functions lowered so far.
  std::size_t functions_lowered() const { return by_function_.size(); }

 private:
  Variants variants_;
  std::unordered_map<TruthTable, std::vector<NandRecording>, TruthTableHash>
      by_function_;
};

}  // namespace dagmap
