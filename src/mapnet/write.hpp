// Writers for mapped netlists: mapped BLIF (.gate statements, the format
// SIS emits after `map`) and structural Verilog.
//
// Both writers name every net by one deterministic rule, so output is
// stable across runs and diffable in tests.  Instances are visited in
// ascending id order.  An instance's base name is its given name, or
// `n<id>` if it has none; if the base name is already used, `_<id>` is
// appended; the final name is recorded as used.  Each writer appends its
// text in one pass into one `std::string`.  test_write.cpp pins the
// bytes of both against reference writers kept there as a test oracle.
#pragma once

#include <string>

#include "mapnet/mapped_netlist.hpp"

namespace dagmap {

/// Mapped BLIF: `.gate <cell> <pin>=<net> ... O=<net>` per instance,
/// `.latch` per register.  Readable back by SIS-compatible tools.
std::string write_mapped_blif(const MappedNetlist& net);

/// Structural Verilog: one module with cell instantiations
/// `cell_name inst_id (.a(net), ..., .O(net));`.  Gate names are
/// sanitized into valid Verilog identifiers.
std::string write_mapped_verilog(const MappedNetlist& net);

/// Writes either format to a file (dispatch on extension: .blif / .v).
void write_mapped_file(const MappedNetlist& net, const std::string& path);

/// Reads a mapped BLIF (.gate statements) back into a MappedNetlist,
/// resolving cell names against `lib` (which must outlive the result).
/// Plain `.names` blocks are accepted only as constants and single-input
/// identity aliases (what `write_mapped_blif` emits).  `.gate` lines may
/// come in any order and resolve in linear time; lines in topological
/// order (the writer's) become instances in line order.
MappedNetlist parse_mapped_blif(const std::string& text,
                                const GateLibrary& lib);

/// Reads a mapped BLIF file from disk.
MappedNetlist read_mapped_blif_file(const std::string& path,
                                    const GateLibrary& lib);

}  // namespace dagmap
