// dagmap_verify — combinational equivalence checker for BLIF netlists.
//
//   $ dagmap_verify golden.blif revised.blif
//   $ dagmap_verify --library lib.genlib golden.blif mapped.blif
//
// With --library, the second file is read as *mapped* BLIF (.gate
// statements resolved against the library).  Add --supergates[=depth]
// to augment that library with generated supergates first (depth
// defaults to 2), so netlists produced by `dagmap_cli --supergates`
// resolve their supergate instances.  Interfaces must match by
// PI/PO names and order.  Sequential circuits are compared
// combinationally (latch outputs as inputs, latch D as outputs), which
// is the invariant technology mapping must preserve.  Exit code: 0
// equivalent, 1 not, 2 usage/IO error.
#include <cstdio>
#include <string>

#include "dagmap/dagmap.hpp"
#include "libcache/request.hpp"
#include "mapnet/write.hpp"
#include "supergate/supergate.hpp"

using namespace dagmap;

namespace {

const char kUsage[] =
    "usage: dagmap_verify [--library lib.genlib [--supergates[=D]]] "
    "golden.blif revised.blif\n";

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n%s", msg.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string library_path;
  unsigned supergate_depth = 0;  // 0 = off; --supergates defaults to 2
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--library") {
      if (++i >= argc) return usage_error("missing --library value");
      library_path = argv[i];
    } else if (a == "--supergates" || a.starts_with("--supergates=")) {
      // The request table's supergates row: its parser and range check.
      MapRequest req;
      std::string error;
      parse_request_flag(argc, argv, i, req, req, error);
      if (error.empty() && !(error = validate_request(req)).empty())
        error = "--supergates: " + error;
      if (!error.empty()) return usage_error(error);
      supergate_depth = req.supergates;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (supergate_depth > 0 && library_path.empty())
    return usage_error("--supergates requires --library");

  Network golden = read_blif_file(files[0]);
  Network revised;
  if (!library_path.empty()) {
    std::vector<GenlibGate> gates = read_genlib_file(library_path);
    GateLibrary lib =
        supergate_depth > 0
            ? std::move(generate_supergates(gates,
                                            {.max_depth = supergate_depth},
                                            library_path + "+supergates")
                            .library)
            : GateLibrary::from_genlib(gates, library_path);
    revised = read_mapped_blif_file(files[1], lib).to_network();
  } else {
    revised = read_blif_file(files[1]);
  }

  std::printf("golden:  %zu PIs, %zu POs, %zu latches (%s)\n",
              golden.num_inputs(), golden.num_outputs(),
              golden.num_latches(), files[0].c_str());
  std::printf("revised: %zu PIs, %zu POs, %zu latches (%s)\n",
              revised.num_inputs(), revised.num_outputs(),
              revised.num_latches(), files[1].c_str());

  EquivalenceResult r = check_equivalence(golden, revised);
  if (r.equivalent) {
    std::printf("EQUIVALENT\n");
    return 0;
  }
  std::printf("NOT EQUIVALENT: failing output index %zu\n", r.failing_output);
  std::printf("counterexample (source bit i = PI/latch i): %s\n",
              r.counterexample_hex().c_str());
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_verify: %s\n", e.what());
  return 2;
}
