// Library-side match pre-index, decoupled from the Matcher.
//
// Everything the matcher derives from the *library* alone — per-pattern
// symmetry hashes, out-degrees and the shape automaton, bucketed by
// pattern-root kind — lives here.  Historically the Matcher recomputed
// this in its constructor for every mapping run; for a library that is
// mapped against once that is fine, but a persistent mapping service
// (libcache/serve) pays the cost once per *library*, not once per
// *request*: the index is built a single time (or deserialized from a
// compiled-library artifact) and shared read-only by every Matcher.
//
// Entries reference gates and patterns by index rather than pointer so
// the structure is trivially serializable and remains valid for any
// GateLibrary with the same gate/pattern shape (`matches_shape`).
// `build` iterates gates and patterns in library order, so the entry
// order — and therefore match-enumeration order — is identical to what
// the legacy in-constructor build produced.
//
// The shape automaton (DESIGN.md §7): a *shape* is a pattern subtree
// with its leaves read as wildcards — (kind, child shapes), NAND2
// children unordered.  Every pattern node gets a shape id; the 44-3
// library's 38k pattern nodes collapse to a few hundred shapes.  The
// matcher gives each subject node the set of shapes it can root, built
// bottom-up from its fanins' sets through the per-child parent lists
// below.  Shapes are derived from the pattern graphs (`derive_shapes`)
// and never serialized, so compiled-library artifacts do not change.
//
// Walk shapes (DESIGN.md §7) are the matcher's memo keys: every
// *private* internal pattern node — one whose subtree is a tree that
// shares no node with the rest of the pattern — is interned as (kind,
// ordered child walk shapes, swap-allowed bit).  Two private nodes with
// the same walk shape have the same sub-bindings at a subject node, in
// the same order, so the matcher builds each such list once per root.
// They are derived alongside the shapes and never serialized either.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "library/gate_library.hpp"
#include "match/signature.hpp"

namespace dagmap {

/// Precomputed match data for one pattern graph of one gate.
struct PatternEntry {
  std::uint32_t gate_index = 0;     ///< index into GateLibrary::gates()
  std::uint32_t pattern_index = 0;  ///< index into Gate::patterns
  /// Symmetry hash per pattern node (equal hashes on a NAND's children
  /// make the swapped child order redundant; see matcher.cpp).
  std::vector<std::uint64_t> sym_hash;
  /// Pattern-internal out-degrees (Exact-match fanout condition).
  std::vector<std::uint32_t> out_deg;
  /// Structural signature.  No longer consulted by the matcher; kept
  /// because the compiled-library artifact layout serializes it.
  PatternSignature sig;
  /// Shape id per pattern node (derived, not serialized).
  std::vector<std::uint32_t> shape;
  /// Walk shape of each *maximal* private internal node — the root of a
  /// tree pattern, or a private child of a node on the shared part of a
  /// DAG pattern — and WalkTable::kNone elsewhere (derived).
  std::vector<std::uint32_t> walk;
  /// DAG patterns only (empty for trees): for each maximal private node
  /// q, the pattern nodes of q's subtree in the order of its walk
  /// shape's binding tuples, entries [walk_first[q], walk_first[q] +
  /// width) of `walk_nodes` (derived).
  std::vector<std::uint32_t> walk_first;
  std::vector<std::uint32_t> walk_nodes;
  /// Where a complete binding's MatchView comes from: one entry per
  /// gate pin, then one per internal pattern node in pattern order.  A
  /// tree pattern reads its root's tuple with the root itself dropped,
  /// so an entry is a tuple position minus one, and kRootSlot stands for
  /// the root; a DAG pattern reads the walk's binding array, so an entry
  /// is a pattern node.  A pin with no leaf is kRootSlot (derived).
  static constexpr std::uint32_t kRootSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> gather;
};

/// Distinct pattern shapes and, per shape, the shapes that have it as a
/// child.  Shape ids are dense; a parent's id exceeds its children's.
struct ShapeTable {
  static constexpr std::uint32_t kLeaf = 0;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Id of INV(c) for each shape c, or kNone.
  std::vector<std::uint32_t> inv_parent;
  /// NAND2 parents of shape c: entries [nand_begin[c], nand_begin[c+1])
  /// of `nand_parent`, each (other child, parent).  A parent whose two
  /// children are the same shape is listed once.
  std::vector<std::uint32_t> nand_begin;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> nand_parent;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(inv_parent.size());
  }
};

/// Distinct private pattern subtrees, ordered.  A walk shape is a leaf
/// (id kLeaf), INV(c), or NAND2(c0, c1) with its children in pattern
/// order plus a swap bit: whether the matcher also tries c0 and c1 on
/// the subject fanins the other way round.  A binding of walk shape w
/// at subject node s is a tuple of `defs[w].width` subject nodes in
/// pre-order (the node, then c0's tuple, then c1's).  Children precede
/// parents in id order.
struct WalkTable {
  static constexpr std::uint32_t kLeaf = 0;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Def {
    PatternNode::Kind kind;
    bool swap;            ///< NAND2: try the swapped child order too
    std::uint32_t c0, c1;  ///< child walk shapes (INV: c0 only)
    std::uint32_t shape;   ///< ShapeTable id (the automaton's screen)
    std::uint32_t width;   ///< pattern nodes in the subtree
  };
  std::vector<Def> defs;

  std::uint32_t size() const { return static_cast<std::uint32_t>(defs.size()); }
};

/// The full library-side index: patterns bucketed by root node kind.
struct PatternIndex {
  std::vector<PatternEntry> inv_rooted;
  std::vector<PatternEntry> nand_rooted;
  /// Root shape of each bucket entry, parallel to the buckets (the
  /// matcher's per-candidate screen reads only these).
  std::vector<std::uint32_t> inv_root_shape;
  std::vector<std::uint32_t> nand_root_shape;
  ShapeTable shapes;
  WalkTable walks;

  /// Builds the index for `lib` (gates in order, patterns in order —
  /// the bucket order the matcher enumerates), shapes included.
  static PatternIndex build(const GateLibrary& lib);

  /// (Re)derives the shape table, per-node shape ids, root shapes and
  /// walk shapes from the pattern graphs the buckets reference.  Precondition:
  /// `matches_shape(lib)`.
  void derive_shapes(const GateLibrary& lib);

  /// True once `derive_shapes` has run for the current buckets.
  bool has_shapes() const {
    return shapes.size() > 0 && walks.size() > 0 &&
           inv_root_shape.size() == inv_rooted.size() &&
           nand_root_shape.size() == nand_rooted.size();
  }

  /// Cheap structural compatibility check: every entry's
  /// (gate_index, pattern_index) must exist in `lib` and reference a
  /// pattern with the expected node count.  True means the index is
  /// safe to use with `lib` (it was built from a library of identical
  /// shape).
  bool matches_shape(const GateLibrary& lib) const;

  std::size_t size() const { return inv_rooted.size() + nand_rooted.size(); }
};

}  // namespace dagmap
