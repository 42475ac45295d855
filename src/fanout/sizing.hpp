// Post-mapping gate sizing (§5 justification, after Lehman et al. [9]).
//
// The paper justifies load-independent mapping by the flow used in [9]:
// "pick a single delay for each gate and perform technology mapping by
// ignoring loads.  Each gate in the final mapping is then continuously
// sized by considering actual loads so that the delay matches the one
// associated with the gate."  We implement the discrete version:
//
//   * `make_sized_library` replicates every gate of a base GENLIB at
//     drive strengths x1/x2/x4...: an xS gate has S times the area and
//     input load and 1/S the load-dependent slope (intrinsic delay
//     unchanged) — the classic linear-delay scaling.
//   * `size_gates` walks a mapped netlist and, for each instance, picks
//     the drive strength minimizing its load-aware worst arrival given
//     the loads its consumers present; iterated to a fixpoint (sizes
//     change loads upstream).
//
// The mappers never see sizes (they map with the x1 delays); sizing is
// purely a back-end recovery pass, exactly as the paper describes.
#pragma once

#include "fanout/load_timing.hpp"
#include "io/genlib.hpp"
#include "library/gate_library.hpp"
#include "mapnet/mapped_netlist.hpp"

namespace dagmap {

/// Replicates each base gate at the given integer drive strengths
/// (strength 1 keeps the original name; others get an `_xS` suffix).
std::vector<GenlibGate> make_sized_genlib(const std::vector<GenlibGate>& base,
                                          const std::vector<unsigned>& sizes);

/// Convenience: sized version of a GENLIB (or Liberty) text.
GateLibrary make_sized_library(const std::string& genlib_text,
                               const std::vector<unsigned>& sizes,
                               std::string name = "sized");

/// Result of the sizing pass.
struct SizingResult {
  MappedNetlist netlist;
  std::size_t resized = 0;     ///< instances whose strength changed
  double delay_before = 0.0;   ///< load-aware delay going in
  double delay_after = 0.0;    ///< load-aware delay after sizing
};

/// Greedy iterative sizing: for each gate instance (reverse topological
/// sweep, repeated `rounds` times) pick the functionally identical
/// library gate minimizing the instance's worst load-aware arrival under
/// the current loads.  `lib` must be a sized library containing the
/// mapped gates' functions.
SizingResult size_gates(const MappedNetlist& net, const GateLibrary& lib,
                        const LoadModel& model = {}, unsigned rounds = 3);

}  // namespace dagmap
