// Shared harness for the paper's Tables 1-3: runs tree mapping and DAG
// mapping on the ISCAS-85-like suite against one library and prints the
// paper's row format (Delay / Area / CPU, tree vs DAG).
#pragma once

#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "library/gate_library.hpp"
#include "obs/obs.hpp"

namespace dagmap::bench {

/// One benchmark row (one circuit, both mappers).
struct TableRow {
  std::string circuit;
  std::size_t subject_nodes = 0;
  double tree_delay = 0, dag_delay = 0;
  double tree_area = 0, dag_area = 0;
  double tree_cpu = 0, dag_cpu = 0;
  bool equivalent = true;  ///< both mapped netlists verified vs subject
};

/// Options for a table run.
struct TableOptions {
  MatchClass match_class = MatchClass::Standard;
  bool verify = true;       ///< simulation equivalence for both mappers
  bool small_suite = false; ///< use the reduced suite (for smoke tests)
};

/// Runs the suite against `lib`.
std::vector<TableRow> run_table(const GateLibrary& lib,
                                const TableOptions& options = {});

/// Prints one table in the paper's layout, plus geometric-mean ratios.
void print_table(const std::string& title, const GateLibrary& lib,
                 const std::vector<TableRow>& rows);

/// Renders per-phase wall times as a JSON object string, e.g.
/// `{"label": 0.0123, "area_recovery": 0.0041}` (seconds, phase order
/// preserved).  For the `"phases"` field every bench JSON line carries;
/// `{}` when the profile is empty (profiling off).
std::string phases_json(const obs::ProfileData& profile);

/// The build a bench result came from, as a JSON object string:
/// `{"git_sha": ..., "build_type": ..., "compiler": ...,
/// "hardware_concurrency": N}`.  `git_sha` is `git describe --always
/// --dirty` of the working directory, or "unknown" outside a checkout.
/// For the `"meta"` field of a bench JSON line.
std::string build_meta_json();

}  // namespace dagmap::bench
