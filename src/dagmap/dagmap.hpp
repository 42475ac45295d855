// Umbrella header for the dagmap library.
//
// dagmap reproduces "Delay-Optimal Technology Mapping by DAG Covering"
// (Kukimoto, Brayton, Sawkar — DAC 1998): a delay-optimal, linear-time
// technology mapper that covers NAND2/INV subject DAGs directly instead
// of decomposing them into trees, plus the full substrate it rests on
// (Boolean networks, GENLIB/BLIF I/O, technology decomposition, graph
// matching, the classic tree-mapping baseline, FlowMap, timing analysis,
// simulation-based equivalence checking, benchmark generators, and
// retiming for the sequential extension).
//
// Typical flow:
//
//   Network circuit   = make_array_multiplier(16);            // gen/
//   Network subject   = tech_decompose(circuit);              // decomp/
//   GateLibrary lib   = make_lib2_library();                  // library/
//   MapResult mapped  = dag_map(subject, lib);                // core/
//   TimingReport rpt  = analyze_timing(mapped.netlist);       // timing/
//   auto ok = check_equivalence(subject,
//                               mapped.netlist.to_network()); // sim/
#pragma once

#include "check/fuzz_pipeline.hpp"
#include "check/reference_cover.hpp"
#include "check/shrink.hpp"
#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "cutmap/cuts.hpp"
#include "dagmap/load_rounds.hpp"
#include "decomp/isop.hpp"
#include "fanout/load_timing.hpp"
#include "decomp/lowering.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "io/blif.hpp"
#include "io/expr.hpp"
#include "io/genlib.hpp"
#include "io/liberty.hpp"
#include "libcache/compiled_library.hpp"
#include "libcache/registry.hpp"
#include "libcache/request.hpp"
#include "libcache/serve.hpp"
#include "library/gate_library.hpp"
#include "library/pattern.hpp"
#include "library/standard_libs.hpp"
#include "lutmap/flowmap.hpp"
#include "mapnet/cover.hpp"
#include "mapnet/mapped_netlist.hpp"
#include "match/matcher.hpp"
#include "netlist/assert.hpp"
#include "netlist/network.hpp"
#include "netlist/truth_table.hpp"
#include "obs/obs.hpp"
#include "seq/retiming.hpp"
#include "seq/seq_map.hpp"
#include "sim/simulator.hpp"
#include "supergate/supergate.hpp"
#include "timing/timing.hpp"
#include "treemap/tree_mapper.hpp"
