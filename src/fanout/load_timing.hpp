// Load-aware static timing — the model the paper's §5 argues can be
// layered *after* load-independent mapping.
//
// GENLIB's linear delay model: the pin-to-output delay of a gate is
// block + slope * load(output net), where the output load is the sum of
// the input loads of the reading pins plus per-fanout wiring and any
// primary-output load.  The mappers deliberately ignore the slope term
// (paper footnote 4); this module measures what that costs and what
// buffering recovers.
#pragma once

#include <vector>

#include "mapnet/mapped_netlist.hpp"

namespace dagmap {

/// Electrical environment for load-aware timing.
struct LoadModel {
  double wire_load_per_fanout = 0.2;  ///< added to the net per fanout edge
  double primary_output_load = 1.0;   ///< load a PO pin presents
  double latch_input_load = 1.0;      ///< load a latch D pin presents

  bool operator==(const LoadModel&) const = default;
};

/// Load-aware timing annotation.
struct LoadTimingReport {
  std::vector<double> arrival;   ///< per instance, load-dependent
  std::vector<double> net_load;  ///< output load of each instance
  std::vector<double> required;  ///< against the measured delay (+inf if unconstrained)
  std::vector<double> slack;     ///< required - arrival
  double delay = 0.0;            ///< worst endpoint arrival
};

/// Analyzes `net` under the linear load model.
LoadTimingReport analyze_timing_loaded(const MappedNetlist& net,
                                       const LoadModel& model = {});

/// Convenience: the load-aware circuit delay.
double circuit_delay_loaded(const MappedNetlist& net,
                            const LoadModel& model = {});

}  // namespace dagmap
