// Metamorphic fuzz harness for the full mapping pipeline.
//
// One fuzz instance is a seeded random (circuit, library) pair: a random
// k-bounded logic network (gen/circuits.hpp) and a random GENLIB library
// (gen/libraries.hpp).  The harness runs the complete
// decompose -> match -> label -> cover flow on it and asserts the
// invariant suite — the properties the paper proves or that follow from
// the match-class lattice, checkable without any golden data:
//
//   Equivalence        mapped netlist == subject graph == source circuit
//                      (sim/check_equivalence), for both match classes;
//   OracleOptimality   fast-mapper arrival labels == the brute-force
//                      reference oracle's labels (check/reference_cover);
//   TreeVsDag          tree-cover delay >= DAG-cover delay (tree matches
//                      are a restriction of standard matches, §3.5);
//   ExtendedVsStandard Extended-match delay <= Standard-match delay
//                      (Definition 3 drops a constraint of Definition 1);
//   ThreadDeterminism  bit-identical labels and mapped netlist for
//                      num_threads in {1, 2, 4, 0};
//   SupergateDominance mapped delay with the supergate-augmented library
//                      (supergate/supergate.hpp, small bounds) <= mapped
//                      delay with the base library under Standard
//                      matches — the augmented library is a superset of
//                      the base, so its match set can only improve
//                      labels — and the augmented cover stays equivalent
//                      to the source circuit;
//   LibCache           the compiled-library cache is transparent: mapping
//                      with a serialize->deserialize round-tripped library
//                      (libcache/compiled_library.hpp) is bit-identical to
//                      mapping with the fresh one, save->load->save is
//                      byte-stable, and an artifact with any single bit
//                      flipped is rejected with a clean error (the FNV-1a
//                      payload checksum makes this exact, not
//                      probabilistic);
//   BackendCross       the priority-cut Boolean backend (cutmap/) maps
//                      the same subject with delay <= the structural
//                      backend's delay — its per-node candidate set is a
//                      superset of the structural matcher's, so by
//                      induction over the topological order its labels
//                      are pointwise no worse — and its cover stays
//                      simulation-equivalent to the source circuit;
//   LoadRounds         the iterated load-aware flow (dagmap/load_rounds,
//                      load_rounds=2) measures a loaded delay <= the
//                      load-oblivious round 0 under the same LoadModel —
//                      round 0 is always a keep-best candidate — and the
//                      re-mapped cover stays simulation-equivalent to
//                      the source circuit;
//   ChoiceDominance    mapping the choice-annotated subject
//                      (decomp/choices.hpp; annotation validated first)
//                      yields delay <= mapping the same subject with
//                      choices off, on the structural backend — per-class
//                      pricing only ever lowers a leaf price — and the
//                      cut backend's choice mapping also comes in at <=
//                      the structural choices-off delay (candidate-set
//                      superset, then the same pricing argument); both
//                      choice covers stay simulation-equivalent to the
//                      source circuit.
//
// Every violation carries enough detail to reproduce: the seed rebuilds
// the instance, and check/shrink.hpp minimizes it.  `inject_label_bug`
// is a test hook that deliberately corrupts the fast labels before the
// oracle comparison, so the detection + shrink path itself is testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "library/gate_library.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Which invariants to assert (bitmask; default all).
enum FuzzInvariant : unsigned {
  kFuzzEquivalence = 1u << 0,
  kFuzzOracleOptimality = 1u << 1,
  kFuzzTreeVsDag = 1u << 2,
  kFuzzExtendedVsStandard = 1u << 3,
  kFuzzThreadDeterminism = 1u << 4,
  kFuzzSupergateDominance = 1u << 5,
  // 1u << 6 was the retired partitioned-schedule invariant; left unused
  // so existing masks keep their meaning.
  kFuzzLibCache = 1u << 7,
  kFuzzBackendCross = 1u << 8,
  kFuzzLoadRounds = 1u << 9,
  kFuzzChoiceDominance = 1u << 10,
  kFuzzAllInvariants = ((1u << 11) - 1) & ~(1u << 6),
};

/// Harness knobs.
struct FuzzOptions {
  /// Invariants to run (FuzzInvariant bitmask).
  unsigned invariants = kFuzzAllInvariants;
  /// Skip the oracle comparison when the subject graph has more internal
  /// nodes than this (the reference matcher is exponential per root).
  std::size_t oracle_max_internal = 120;
  /// Test hook: corrupt the fast labels (+0.25 on every Inv node) before
  /// the oracle comparison, making OracleOptimality fail on any instance
  /// whose subject contains an inverter.  Lets tests and the shrinker
  /// exercise the failure path of a correct mapper.
  bool inject_label_bug = false;
  /// Test hook: report the supergate-side delay as base + 1.0 before the
  /// dominance comparison, making SupergateDominance fail on every
  /// instance — the sixth invariant's detection + shrink path.
  bool inject_supergate_bug = false;
  /// Test hook: report the cut-backend delay as structural + 1.0 before
  /// the BackendCross comparison, making it fail on every instance — the
  /// ninth invariant's detection + shrink path.
  bool inject_backend_bug = false;
  /// Test hook: report the load-aware measured delay as round 0 + 1.0
  /// before the LoadRounds comparison, making it fail on every instance
  /// — the tenth invariant's detection + shrink path.
  bool inject_load_bug = false;
  /// Test hook: report the choice-mapped delay as the choices-off delay
  /// + 1.0 before the ChoiceDominance comparison, making it fail on
  /// every instance — the eleventh invariant's detection + shrink path.
  bool inject_choice_bug = false;

  // Instance-generation ranges (inclusive), used by make_fuzz_instance.
  unsigned min_inputs = 3, max_inputs = 8;
  unsigned min_nodes = 8, max_nodes = 40;
  unsigned min_outputs = 1, max_outputs = 4;
  unsigned min_gates = 4, max_gates = 12;
  unsigned max_gate_inputs = 4;
  /// Generate multi-level (non-read-once) gate functions; off by default
  /// so historical seeds keep building the same instances.
  bool multi_level_libraries = false;
};

/// One generated (circuit, library) pair.  The library is carried both
/// parsed and as GENLIB text so failures can be written to disk verbatim.
struct FuzzInstance {
  std::uint64_t seed = 0;
  Network circuit;
  std::string library_text;
  GateLibrary library;
};

/// Deterministically builds the instance for `seed`.
FuzzInstance make_fuzz_instance(std::uint64_t seed,
                                const FuzzOptions& options = {});

/// One invariant violation.
struct FuzzViolation {
  std::string invariant;  ///< "Equivalence", "OracleOptimality", ...
  std::string detail;     ///< human-readable specifics
};

/// Result of running the invariant suite on one instance.
struct FuzzReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<FuzzViolation> violations;
  /// True when the oracle comparison ran (subject small enough, no
  /// enumeration truncation).
  bool oracle_checked = false;
  std::size_t subject_nodes = 0;

  std::string to_string() const;
};

/// Runs the invariant suite on an already-built instance.
FuzzReport run_fuzz_instance(const FuzzInstance& instance,
                             const FuzzOptions& options = {});

/// Convenience: build the instance for `seed`, then run the suite.
FuzzReport run_fuzz_seed(std::uint64_t seed, const FuzzOptions& options = {});

}  // namespace dagmap
