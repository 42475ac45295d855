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
// wavefront runs as a parallel-for (`MapOptions::num_threads`).  Tie
// breaking among equal-arrival matches is by (gate area, gate name), not
// enumeration order, so the labels, selected gates, and mapped netlist
// are bit-identical for every thread count.
//
// This is the only schedule: coarser fanout-free windows were measured
// against it on 1M-node subjects and did not pay for their code
// (EXPERIMENTS.md "Partition verdict").
//
// The same driver runs the second candidate source (`CandidateSource::
// Cuts`, wrapped as `cut_map` in cutmap/cut_mapper.hpp): per node the
// candidates are the structural matches plus the NPN matches of the
// node's priority cuts, with negations materialized as inverters.  The
// labeling, scheduling, choice pricing, area recovery and cover below
// are one code path for both sources.
//
// The optional area-recovery rounds (§6's sketched extension, in abc-zz
// LutMap's n_rounds/delay_factor form) keep the delay bound but relax
// non-critical nodes: each needed node receives a required time, and
// the candidate of minimum area flow meeting it is selected instead of
// the fastest.
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

class NpnLibraryIndex;

/// Where the labeling pass draws each node's candidate implementations.
enum class CandidateSource : std::uint8_t {
  /// Structural pattern matches only: the paper's mapper (`dag_map`).
  Structural,
  /// Structural matches plus NPN matches of bounded priority cuts
  /// (`cut_map`, cutmap/cut_mapper.hpp).  Labels are pointwise <= the
  /// structural source's, so the mapped delay is never worse.
  Cuts,
};

/// Options for `map`, one block for both candidate sources.
struct MapOptions {
  /// Candidate source (the `dag_map` / `cut_map` wrappers set it).
  CandidateSource source = CandidateSource::Structural;
  /// Which match definition to enumerate (§3.2).  The paper's
  /// experiments use Standard (footnote 3).
  MatchClass match_class = MatchClass::Standard;
  /// Trade area for delay on non-critical paths while keeping the delay
  /// bound: at least one area-recovery round (off reproduces the paper
  /// exactly: "the fastest mapping is simply created no matter how
  /// critical the node is").  With `rounds` <= 1 this is the §6 pass:
  /// among candidates of equal area flow it keeps the first one in
  /// enumeration order unless a later one arrives strictly earlier.
  bool area_recovery = false;
  /// With area recovery: relax the circuit to this delay target instead
  /// of the optimum (clamped from below to the optimal delay times
  /// `delay_factor` — a target beneath the optimum is unreachable).
  /// <= 0 means "no absolute target".  This is the §6 area/delay
  /// trade-off knob: sweeping it from the optimum upward trades speed
  /// back for area.
  double target_delay = 0.0;
  /// Mapping rounds: 1 = the pure delay-optimal pass; each extra round
  /// is an area-recovery re-selection under required times (abc-zz
  /// LutMap's `n_rounds`; equal area flows break on arrival, area, then
  /// gate name).  `area_recovery` asks for at least 2.
  unsigned rounds = 1;
  /// Required-time slack for the area rounds, as a factor of the optimal
  /// delay (LutMap's `delay_factor`; clamped from below to 1.0).
  double delay_factor = 1.0;
  /// Worker threads for the wavefront labeling phase: 1 = sequential,
  /// 0 = all hardware threads, n = exactly n.  The result is
  /// bit-identical for every value (nodes of one depth level label
  /// independently, and ties break on (arrival, area, gate name)
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
  /// Library-side match pre-index to reuse (match/pattern_index.hpp).
  /// Null builds one per call; a persistent caller — the compiled-
  /// library cache, serve mode — passes the index it computed (or
  /// deserialized) once per library.  Must be the index of the library
  /// being mapped against and must outlive the call.  The mapped result
  /// is bit-identical either way.
  const PatternIndex* pattern_index = nullptr;
  /// NPN library index to reuse with the cut source (serve mode:
  /// `npn_index_from_compiled`); null builds one per call.  Bit-identical
  /// either way; ignored by the structural source.
  const NpnLibraryIndex* npn_index = nullptr;
  /// Iterated load-aware mapping (dagmap/load_rounds.hpp).  0 keeps the
  /// paper's load-oblivious flow.  N runs up to N re-pricing rounds:
  /// measure the mapping under `load_model`, fold the measured loads
  /// into the pin delays, re-label, and keep the best *measured* round
  /// — never worse than the load-oblivious mapping under the same
  /// model, and bit-identical at any thread count.
  unsigned load_rounds = 0;
  /// Electrical environment for the load-aware rounds (and for the
  /// measured `MapResult::loaded_delay`).
  LoadModel load_model = {};
  /// Choice annotation of the subject (netlist/choice_classes.hpp;
  /// produced by `tech_decompose_choices`), or null.  Non-null and
  /// active makes labeling price every candidate leaf per choice class
  /// through the `ChoicePricing` hook (core/choice_pricing.hpp), merges
  /// the class members' priority cuts into the anchor's set at fold
  /// time (cut source), rewrites selections onto the class-best
  /// variants, and redirects POs / latch D inputs accordingly — §4's
  /// combination with Lehman–Watanabe choices.  Must describe the
  /// subject being mapped and outlive the call.  Null (or an inert
  /// annotation) reproduces the unannotated flow bit-identically.
  const ChoiceClasses* choices = nullptr;
  /// Priority-cut knobs, read only by the cut source (abc-zz
  /// `Params_LutMap`'s cut block).
  struct Cuts {
    /// Maximum cut leaves (2..4; bounded by the NPN machinery).
    unsigned size = 4;
    /// Priority cuts kept per node (trivial cut excluded), LutMap's
    /// `cuts_per_node`.
    unsigned count = 8;

    bool operator==(const Cuts&) const = default;
  };
  Cuts cuts = {};

  bool operator==(const MapOptions&) const = default;
};

/// The historical names of the option block, one per wrapper.
using DagMapOptions = MapOptions;
using CutMapOptions = MapOptions;

/// Range check shared by the front ends (CLI flags, serve requests):
/// an empty string for a valid block, else the reason it is not.  It
/// also rejects knobs the chosen source would ignore (cut knobs on the
/// structural source, a delay factor or target without area recovery).
std::string validate_map_options(const MapOptions& options);

/// Result of a mapping run.
struct MapResult {
  MappedNetlist netlist;
  /// Optimal-arrival label of every subject node (0 for sources).
  std::vector<double> label;
  /// max label over PO drivers / latch D drivers == mapped circuit delay.
  double optimal_delay = 0.0;
  /// Statistics.
  std::uint64_t match_attempts = 0;
  /// Candidate patterns skipped by the shape automaton without a walk.
  std::uint64_t match_prunes = 0;
  std::uint64_t matches_enumerated = 0;
  std::uint64_t truncations = 0;
  /// Wall-clock seconds of the call (steady_clock), not CPU time.
  double cpu_seconds = 0.0;
  /// Duplication accounting (§3.5): subject nodes covered by the selected
  /// matches, counted with multiplicity / distinctly, and the number of
  /// subject nodes implemented more than once.
  std::size_t covered_instances = 0;
  std::size_t covered_distinct = 0;
  std::size_t duplicated_nodes = 0;
  std::size_t num_partitions = 0;   ///< always 0; perfbench reads it
  std::size_t partition_waves = 0;  ///< always 0; perfbench reads it
  /// Per-phase timings, counters and trace events; only populated when
  /// `MapOptions::profile` is set (`profile.collected`).
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
  /// Choice-mapping summary (zeros when `MapOptions::choices` was
  /// null/inert): classes with >1 variant, extra variants beyond one per
  /// class, and classes whose fold beat the structurally referenced
  /// variant (the class anchor).
  std::size_t choice_classes = 0;
  std::size_t choice_variants = 0;
  std::size_t choice_wins = 0;
};

/// Maps `subject` (a NAND2/INV subject graph) onto `lib`: delay-optimal
/// labeling over the candidates of `options.source`, then the cover.
/// The library must contain an inverter and a 2-input NAND
/// (`lib.is_complete_for_mapping()`).
MapResult map(const Network& subject, const GateLibrary& lib,
              const MapOptions& options = {});

/// `map` with the structural candidate source: the paper's DAG mapper.
inline MapResult dag_map(const Network& subject, const GateLibrary& lib,
                         MapOptions options = {}) {
  options.source = CandidateSource::Structural;
  return map(subject, lib, options);
}

}  // namespace dagmap
