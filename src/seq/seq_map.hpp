// Sequential technology mapping with retiming (§4 of the paper).
//
// The paper sketches the Pan–Liu three-step transformation for optimal
// cycle time: (1) retime the initial circuit, (2) map the combinational
// portion, (3) retime the mapped circuit.  This module implements that
// pipeline for both library-based DAG covering and k-LUT mapping:
// pre-retiming balances the subject graph so the mapper sees shorter
// register-to-register cones; post-retiming moves the surviving
// registers to minimize the final clock period under the
// load-independent gate delay model.
#pragma once

#include "core/dag_mapper.hpp"
#include "library/gate_library.hpp"
#include "lutmap/flowmap.hpp"
#include "seq/retiming.hpp"

namespace dagmap {

/// Result of the map-with-retiming pipeline.
struct SeqMapResult {
  MappedNetlist netlist;        ///< final, post-retimed mapped circuit
  double period_unmapped = 0;   ///< subject-graph period (unit delays)
  double period_mapped = 0;     ///< after mapping, before post-retiming
  double period_final = 0;      ///< after post-retiming (the result)
};

/// Options for the sequential pipeline.
struct SeqMapOptions {
  MapOptions map;          ///< combinational mapper settings
  bool pre_retime = true;  ///< step (1): retime the subject graph first
};

/// Maps a sequential NAND2/INV subject graph for minimum cycle time:
/// optional pre-retiming, delay-optimal DAG covering of the combinational
/// portion, then min-period retiming of the mapped netlist.
SeqMapResult map_with_retiming(const Network& subject, const GateLibrary& lib,
                               const SeqMapOptions& options = {});

/// The LUT-mapping variant (unit LUT delays, as in Pan–Liu).
struct SeqLutMapResult {
  Network netlist;             ///< final LUT network, post-retimed
  double period_mapped = 0;    ///< LUT levels per cycle before retiming
  double period_final = 0;     ///< after post-retiming
};
SeqLutMapResult lut_map_with_retiming(const Network& input,
                                      const LutMapOptions& options = {});

}  // namespace dagmap
