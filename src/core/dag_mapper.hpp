// Delay-optimal technology mapping by DAG covering — the paper's
// contribution (§3).
//
// The FlowMap-style labeling pass visits the NAND2/INV subject graph in
// topological order.  Sources are labelled 0.  At each internal node all
// structural matches of library gates are enumerated (standard matches by
// default, per the paper's experiments; extended matches optionally) and
// the node is labelled with the best achievable arrival time:
//
//     label(n) = min over matches M at n of
//                max over leaves x of M (label(x) + pin_delay(M, x))
//
// Because matches may cover multi-fanout nodes without covering their
// other fanouts, and the backward cover construction duplicates logic
// wherever two selected matches overlap, the result is delay-optimal with
// respect to the subject graph and the chosen match class — in contrast
// to tree covering, which is limited by the subject graph's fanout
// structure (§3.5).  The whole algorithm is O(s * p): linear in subject
// size for a fixed library.
//
// Labeling is scheduled as depth wavefronts: every leaf of a match rooted
// at a node is a strict transitive fanin, hence at a strictly smaller
// depth level, so all nodes of one level label independently and the
// wavefront runs as a parallel-for (`DagMapOptions::num_threads`).  Tie
// breaking among equal-arrival matches is by (gate area, gate name), not
// enumeration order, so the labels, selected gates, and mapped netlist
// are bit-identical for every thread count.
//
// At multi-million-node scale the same dependency argument coarsens from
// single nodes to fanout-free windows (core/partition.hpp): partitions
// label wave-by-wave with boundary arrival-time exchange — a partition's
// match leaves outside itself always sit in strictly lower-level
// partitions, settled by the previous waves — and the cover marking runs
// partition-parallel in reverse wave order.  `PartitionMode` selects the
// schedule (auto above a node-count threshold); both schedules visit
// every node with identical settled inputs, so the partitioned result is
// bit-identical to the monolithic one at any thread/partition count.
//
// The optional area-recovery pass (§6's sketched extension) keeps the
// optimal delay but relaxes non-critical nodes: during cover construction
// each needed node receives a required time, and the cheapest match
// meeting it is selected instead of the fastest.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fanout/load_timing.hpp"
#include "library/gate_library.hpp"
#include "mapnet/mapped_netlist.hpp"
#include "match/matcher.hpp"
#include "netlist/choice_classes.hpp"
#include "netlist/network.hpp"
#include "obs/obs.hpp"

namespace dagmap {

/// Whether dag_map runs the partitioned pipeline (core/partition.hpp):
/// fanout-free-window partitions labeled wave-by-wave with boundary
/// arrival-time exchange, and a partition-parallel cover marking.  The
/// result is bit-identical to the monolithic pipeline in every mode —
/// the knob only selects the schedule.
enum class PartitionMode : std::uint8_t {
  Auto,  ///< partition iff the subject has >= partition_auto_threshold
         ///< internal nodes (where scheduling granularity pays off)
  Off,   ///< always the monolithic depth-wavefront schedule
  On,    ///< always the partitioned schedule
};

/// Options for the DAG mapper.
struct DagMapOptions {
  /// Which match definition to enumerate (§3.2).  The paper's
  /// experiments use Standard (footnote 3).
  MatchClass match_class = MatchClass::Standard;
  /// Trade area for delay on non-critical paths while preserving the
  /// optimal delay (off reproduces the paper exactly: "the fastest
  /// mapping is simply created no matter how critical the node is").
  bool area_recovery = false;
  /// With area recovery: relax the circuit to this delay target instead
  /// of the optimum (clamped from below to the optimal delay — a target
  /// beneath it is unreachable).  <= 0 means "the optimal delay".  This
  /// is the §6 area/delay trade-off knob: sweeping it from the optimum
  /// upward trades speed back for area.
  double target_delay = 0.0;
  /// Delay slack treated as equal when comparing arrivals.
  double epsilon = 1e-9;
  /// Worker threads for the wavefront labeling phase: 1 = sequential,
  /// 0 = all hardware threads, n = exactly n.  The result is
  /// bit-identical for every value (nodes of one depth level label
  /// independently, and ties break on (arrival, gate area, gate name)
  /// rather than enumeration order).
  unsigned num_threads = 1;
  /// Pre-match pruning by the matcher's shape automaton (off reproduces
  /// the unpruned enumeration; for benchmarks/tests).
  bool use_signature_index = true;
  /// Record per-phase timings/counters into `MapResult::profile` (see
  /// obs/obs.hpp).  Purely observational: the mapped netlist is
  /// bit-identical with profiling on or off, at any thread count.  If a
  /// profiling session is already active (e.g. the CLI started one
  /// spanning the whole pipeline), the mapper instruments into it and
  /// `MapResult::profile` snapshots that session.
  bool profile = false;
  /// Partitioned-pipeline selection (see PartitionMode).
  PartitionMode partition_mode = PartitionMode::Auto;
  /// Maximum internal nodes per partition window
  /// (PartitionOptions::window_size).
  std::uint32_t partition_window = 1024;
  /// Auto mode enables partitioning at this many internal nodes.
  std::size_t partition_auto_threshold = 200000;
  /// Library-side match pre-index to reuse (match/pattern_index.hpp).
  /// Null builds one per call (the historical behaviour); a persistent
  /// caller — the compiled-library cache, serve mode — passes the index
  /// it computed (or deserialized) once per library.  Must be the index
  /// of the library being mapped against and must outlive the call.
  /// The mapped result is bit-identical either way.
  const PatternIndex* pattern_index = nullptr;
  /// Iterated load-aware mapping (dagmap/load_rounds.hpp).  0 keeps the
  /// paper's load-oblivious flow.  N runs up to N re-pricing rounds:
  /// measure the mapping under `load_model`, fold the measured loads
  /// into the pin delays, re-label, and keep the best *measured* round
  /// — never worse than the load-oblivious mapping under the same
  /// model, and bit-identical at any thread count.
  unsigned load_rounds = 0;
  /// Electrical environment for the load-aware rounds (and for the
  /// measured `MapResult::loaded_delay`).
  LoadModel load_model;
  /// Choice annotation of the subject (netlist/choice_classes.hpp;
  /// produced by `tech_decompose_choices`), or null.  Non-null and
  /// active makes labeling price every match leaf per choice class
  /// through the shared `ChoicePricing` hook (core/choice_pricing.hpp),
  /// rewrites selected matches onto the class-best variants, and
  /// redirects POs / latch D inputs accordingly — §4's combination with
  /// Lehman–Watanabe choices.  Must describe the subject being mapped
  /// and outlive the call.  Null (or an inert annotation) reproduces
  /// the unannotated flow bit-identically.
  const ChoiceClasses* choices = nullptr;
};

/// Result of a mapping run.
struct MapResult {
  MappedNetlist netlist;
  /// Optimal-arrival label of every subject node (0 for sources).
  std::vector<double> label;
  /// max label over PO drivers / latch D drivers == mapped circuit delay.
  double optimal_delay = 0.0;
  /// Statistics.
  std::uint64_t match_attempts = 0;
  std::uint64_t match_prunes = 0;  ///< (root, pattern) pairs pruned O(1)
  std::uint64_t matches_enumerated = 0;
  std::uint64_t truncations = 0;
  double cpu_seconds = 0.0;
  /// Duplication accounting (§3.5): subject nodes covered by the selected
  /// matches, counted with multiplicity / distinctly, and the number of
  /// subject nodes implemented more than once.
  std::size_t covered_instances = 0;
  std::size_t covered_distinct = 0;
  std::size_t duplicated_nodes = 0;
  /// Partitioned-pipeline summary (zeros when the monolithic schedule
  /// ran; see core/partition.hpp).
  bool partitioned = false;
  std::size_t num_partitions = 0;
  std::size_t partition_waves = 0;
  std::size_t partition_boundary_edges = 0;
  std::size_t partition_max_nodes = 0;
  /// Per-phase timings, counters and trace events; only populated when
  /// `DagMapOptions::profile` is set (`profile.collected`).
  obs::ProfileData profile;
  /// Load-aware round bookkeeping (meaningful when load_rounds > 0).
  /// `loaded_delay` is the returned netlist's measured delay under the
  /// request's LoadModel; `loaded_delay_round0` the load-oblivious
  /// round's — loaded_delay <= loaded_delay_round0 always holds.
  double loaded_delay = 0.0;
  double loaded_delay_round0 = 0.0;
  unsigned load_round_selected = 0;
  /// Measured delay of every round in order (front = round 0).
  std::vector<double> load_round_delays;
  /// Choice-mapping summary (zeros when `DagMapOptions::choices` was
  /// null/inert): classes with >1 variant, extra variants beyond one per
  /// class, and classes whose fold beat the structurally referenced
  /// variant (the class anchor).
  std::size_t choice_classes = 0;
  std::size_t choice_variants = 0;
  std::size_t choice_wins = 0;
};

/// Maps `subject` (a NAND2/INV subject graph) onto `lib` with
/// delay-optimal DAG covering.  The library must contain an inverter and
/// a 2-input NAND (`lib.is_complete_for_mapping()`).
MapResult dag_map(const Network& subject, const GateLibrary& lib,
                  const DagMapOptions& options = {});

}  // namespace dagmap
