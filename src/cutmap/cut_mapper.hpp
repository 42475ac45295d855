// Priority-cut Boolean mapping — the second candidate source of the one
// mapping driver (core/dag_mapper.hpp).
//
// The paper's `dag_map` is delay-optimal only with respect to the
// matches the structural decomposition happens to expose; this source
// matches *functions* too: bounded priority-cut enumeration per node
// (cut_set.hpp), NPN canonization of each cut's truth table, and a
// lookup in the NPN library index (boolmatch/npn_index.hpp), with
// input/output negations materialized as explicit inverters by the
// mapnet cover emission.  Per node the candidate set is the *union* of
// the structural matches and the NPN cut matches, which gives the
// delay-dominance guarantee the fuzz harness cross-checks: by induction
// over the topological order the cut source's label at every node is
// <= the structural source's label, hence mapped delay is never worse
// (and usually better where the decomposition hid a match).
//
// Scheduling, determinism, choice pricing, load-aware rounds, the
// area-recovery rounds and the cover are the driver's: results are
// bit-identical at any thread count.  The round-0 cut sets are kept for
// the area rounds, so their candidate space is exactly the labeling
// pass's.
#pragma once

#include "boolmatch/npn_index.hpp"
#include "core/dag_mapper.hpp"
#include "library/gate_library.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// `map` with the cut candidate source.  `MapResult::label` holds the
/// per-node optimal arrivals under the (structural ∪ NPN-cut) match
/// space — pointwise <= `dag_map`'s labels for the same inputs.
inline MapResult cut_map(const Network& subject, const GateLibrary& lib,
                         MapOptions options = {}) {
  options.source = CandidateSource::Cuts;
  return map(subject, lib, options);
}

}  // namespace dagmap
