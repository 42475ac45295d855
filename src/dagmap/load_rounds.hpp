// Iterated load-aware mapping rounds — closing the loop the paper
// leaves open in footnote 4.
//
// The mappers label with load-independent pin delays (block only); the
// measurement half (fanout/load_timing.hpp) prices the mapped netlist
// under the full linear model block + slope * load.  The gap between
// the two is what this module iterates away:
//
//   round 0:  map load-obliviously, measure under the LoadModel.
//   round r:  from the previous round's measured netlist, estimate the
//             load each library gate actually drives (critical
//             instances first — the backward required-time pass marks
//             them — falling back to the gate's average, then the
//             library average), fold block + slope * estimate into each
//             pin's block delay, rebuild the library via
//             GateLibrary::from_compiled (patterns are copied, nothing
//             re-parses), re-map against the re-priced library, then
//             re-point every selected gate at the original library and
//             measure again under the *original* parameters.
//
// The best measured round wins.  Round 0 is always a candidate, so the
// result is provably never worse than the load-oblivious mapping under
// the same LoadModel; and every step — measurement, estimation,
// re-pricing, the mapper itself — is a deterministic pure function of
// the previous round, so the whole flow is bit-identical at any thread
// count (the mapper's own guarantee carries through unchanged).
//
// Both candidate sources run through here: `map` (core/dag_mapper.hpp)
// on MapOptions::load_rounds hands this driver a "map once against this
// library" callback.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "fanout/load_timing.hpp"
#include "library/gate_library.hpp"
#include "mapnet/mapped_netlist.hpp"
#include "obs/obs.hpp"

namespace dagmap {

/// Per-library-gate driven-load estimates from a measured netlist.
/// For each gate: the average measured output load over its *critical*
/// instances (slack <= epsilon under the backward required-time pass),
/// else over all its instances, else the average over every gate
/// instance in the netlist, else 1.0.  Deterministic: sums run in
/// instance-id order.
std::vector<double> estimate_gate_loads(const MappedNetlist& net,
                                        const GateLibrary& lib,
                                        const LoadTimingReport& timing,
                                        double epsilon = 1e-9);

/// A copy of `lib` with block + slope * gate_load[i] folded into every
/// pin's rise/fall block delay (the slope coefficients are preserved).
/// `gate_load` has one entry per library gate.  Built through
/// GateLibrary::from_compiled, so patterns and gate order — and hence
/// the match-enumeration order — are identical to `lib`'s.
GateLibrary reprice_library(const GateLibrary& lib,
                            const std::vector<double>& gate_load,
                            std::string name);

/// Re-points every GateInst of `net` from its gate in `from` to the
/// same-index gate of `to` (libraries of identical shape; asserts on
/// mismatch).  The topology cache survives — replace_gate is in-place.
void retarget_gates(MappedNetlist& net, const GateLibrary& from,
                    const GateLibrary& to);

/// The round driver.  `map_once(library)` must run one load-oblivious
/// mapping of the same subject against the given library (a re-priced
/// copy on rounds >= 1; `lib` itself on round 0) and may be called
/// `rounds + 1` times.  Returns the best-measured round's MapResult
/// with the gate pointers re-targeted at `lib` and the load_* fields
/// filled in.
MapResult map_with_load_rounds(
    const GateLibrary& lib, unsigned rounds, const LoadModel& model,
    double epsilon,
    const std::function<MapResult(const GateLibrary&)>& map_once);

}  // namespace dagmap
