// Structural matching of pattern graphs on subject graphs (§3.2).
//
// Three match classes, in increasing permissiveness:
//   * Exact    — Rudell's tree-covering matches (Definition 2): fanout of
//                every covered internal subject node must be fully inside
//                the match.  Used by the baseline tree mapper.
//   * Standard — Definition 1: internal subject nodes may drive logic
//                outside the match, but the pattern-node -> subject-node
//                map is one-to-one.  The paper's experimental setting.
//   * Extended — Definition 3: the one-to-one requirement is dropped, so
//                the match may "unfold" the subject DAG, binding the same
//                subject node to several pattern nodes (Figure 1).
//
// Matching is a backtracking walk of the pattern DAG against the subject
// DAG, trying both orders of every NAND2's children (commutativity) and
// binding shared pattern nodes consistently.  Complexity per root is
// O(p) for tree patterns in the paper's sense; the implementation prunes
// on node kinds so failed gates abort after a few nodes.
//
// Two layers keep the per-root cost low with rich libraries:
//   * a shape automaton — every pattern node has a shape id (its subtree
//     with leaves as wildcards; match/pattern_index.hpp), and the
//     constructor gives every subject node the set of shapes it can
//     root in one bottom-up pass.  A candidate whose root shape is not in
//     the root's set is skipped without a walk, and the walk refuses to
//     bind a pattern node to a subject node outside its shape's set.
//     Each refused branch is one that could not complete, so the
//     sequence of matches is exactly the unpruned one (DESIGN.md §7);
//   * allocation-free enumeration — the walk, the one-to-one check, the
//     dedup table and the match assembly run out of per-thread scratch
//     buffers, and matches reach the callback as `MatchView` spans into
//     that scratch (valid only during the callback; copy into a `Match`
//     to keep one).
//
// `for_each_match` is safe to call concurrently from several threads on
// the same `Matcher` (the statistics counters are atomic; scratch is
// per-thread), which is what the parallel wavefront labeler relies on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "library/gate_library.hpp"
#include "match/pattern_index.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Which of the paper's match definitions to enumerate.
enum class MatchClass : std::uint8_t { Exact, Standard, Extended };

const char* to_string(MatchClass mc);

struct MatchView;

/// One successful match of a library gate rooted at a subject node
/// (owning storage; see `MatchView` for the non-owning callback form).
struct Match {
  Match() = default;
  explicit Match(const MatchView& v);

  /// Overwrites this match with `v`, reusing the vectors' capacity (a
  /// per-worker running best allocates nothing in the steady state).
  void assign(const MatchView& v);

  const Gate* gate = nullptr;
  const PatternGraph* pattern = nullptr;
  /// Subject node feeding gate pin i (the match "leaves").
  std::vector<NodeId> pin_binding;
  /// Internal subject nodes covered by the match, root included
  /// (duplicates possible under Extended matches).
  std::vector<NodeId> covered;
  /// Phase information for Boolean (NPN) matches: gate pin i reads the
  /// *complement* of pin_binding[i] iff bit i of `input_negate` is set,
  /// and the gate output is complemented iff `output_negate`.  The cover
  /// materializes these as explicit inverter instances (emit_cover's
  /// `inverter` parameter).  Structural matches leave both zero.
  std::uint8_t input_negate = 0;
  bool output_negate = false;
};

/// Non-owning view of a match: spans point into the enumerating thread's
/// scratch arena and are valid only for the duration of the callback.
struct MatchView {
  MatchView() = default;
  MatchView(const Gate* g, const PatternGraph* p, std::span<const NodeId> pins,
            std::span<const NodeId> cov)
      : gate(g), pattern(p), pin_binding(pins), covered(cov) {}
  /// A `Match` views as itself (lets owning matches flow into the same
  /// helpers, e.g. `match_arrival`).
  MatchView(const Match& m)
      : gate(m.gate), pattern(m.pattern), pin_binding(m.pin_binding),
        covered(m.covered) {}

  const Gate* gate = nullptr;
  const PatternGraph* pattern = nullptr;
  std::span<const NodeId> pin_binding;
  std::span<const NodeId> covered;
};

/// Arrival time at the match root if each leaf is available at
/// `leaf_arrival[pin_binding[i]]`: max over pins of (leaf arrival + pin
/// intrinsic delay).  This is the paper's load-independent cost.
double match_arrival(const MatchView& m, std::span<const double> leaf_arrival);

/// Aggregated matcher statistics (mergeable across threads).
struct MatchStats {
  /// (root, pattern) pairs whose backtracking walk actually ran (the
  /// `match.walks` counter).
  std::uint64_t attempts = 0;
  /// (root, pattern) candidates rejected before a walk, because the
  /// root cannot root the pattern's shape (the `match.pruned` counter).
  std::uint64_t pruned = 0;
  /// Walks that hit the enumeration budget (symmetric patterns on highly
  /// regular subjects); their match lists are sound but possibly
  /// incomplete.
  std::uint64_t truncations = 0;
};

/// Matcher knobs.
struct MatcherOptions {
  /// Pre-match pruning by the shape automaton (off reproduces the
  /// unpruned enumeration, for benchmarking and soundness tests).  The
  /// name predates the automaton, which replaced a signature filter.
  bool use_signature_index = true;
};

/// Enumerates matches of every library gate rooted at subject nodes.
class Matcher {
 public:
  /// Both references must outlive the matcher.  Precondition: `subject`
  /// is a NAND2/INV subject graph.  When `index` is non-null it must be
  /// the PatternIndex of `lib` (same build order; checked) and must
  /// outlive the matcher — the per-construction index build is skipped,
  /// which is what the compiled-library cache and serve mode rely on.
  /// Null builds a private index (the historical behaviour, same bytes).
  Matcher(const GateLibrary& lib, const Network& subject,
          MatcherOptions options = {}, const PatternIndex* index = nullptr);

  using MatchCallback = std::function<void(const MatchView&)>;

  /// Invokes `cb` for every deduplicated match rooted at `root`.
  /// `root` must be an internal (NAND2/INV) node.  Thread-safe.
  void for_each_match(NodeId root, MatchClass mc,
                      const MatchCallback& cb) const;

  /// Convenience: collects the matches at `root` into a vector.
  std::vector<Match> matches_at(NodeId root, MatchClass mc) const;

  /// Statistics accumulated so far, merged over all threads.
  MatchStats stats() const;

  /// Total number of (root, pattern) walks so far (statistics).
  std::uint64_t attempts() const {
    return attempts_.load(std::memory_order_relaxed);
  }

  /// Number of (root, pattern) candidates rejected before a walk.
  std::uint64_t pruned() const {
    return pruned_.load(std::memory_order_relaxed);
  }

  /// Number of attempts that hit the enumeration budget.
  std::uint64_t truncations() const {
    return truncations_.load(std::memory_order_relaxed);
  }

  /// True when subject node `s` can root pattern shape `shape` (always
  /// true with pruning off).  Necessary for any binding of a pattern
  /// node of that shape to `s`, under every match class.
  bool can_root(NodeId s, std::uint32_t shape) const {
    return shape_sets_.empty() ||
           ((shape_sets_[std::size_t{s} * shape_words_ + shape / 64] >>
             (shape % 64)) & 1) != 0;
  }

  /// Safety valve per (root, pattern): backtracking steps before the
  /// enumeration is cut off.
  static constexpr std::uint64_t kEnumerationBudget = 50'000;

 private:
  const GateLibrary& lib_;
  const Network& subject_;
  MatcherOptions options_;
  /// View of the subject's cached fanout counts (no per-matcher copy;
  /// valid while the subject is not structurally mutated).
  std::span<const std::uint32_t> fanout_counts_;
  /// Library-side pre-index (match/pattern_index.hpp): built privately
  /// when the constructor receives no external one, otherwise empty.
  PatternIndex owned_index_;
  /// The index actually consulted (&owned_index_ or the external one).
  const PatternIndex* index_;
  /// Per subject node, the bitset of shapes it can root
  /// (`shape_words_` words per node); empty with pruning off.
  std::size_t shape_words_ = 0;
  std::vector<std::uint64_t> shape_sets_;
  mutable std::atomic<std::uint64_t> attempts_{0};
  mutable std::atomic<std::uint64_t> pruned_{0};
  mutable std::atomic<std::uint64_t> truncations_{0};
  /// Match count of the last `matches_at` call (reserve hint).
  mutable std::atomic<std::uint32_t> last_match_count_{8};
};

}  // namespace dagmap
