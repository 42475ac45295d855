// bench_cutmap — priority-cut Boolean backend vs the structural mapper.
//
// Two parts, one JSON object (written to BENCH_cutmap.json and echoed on
// stdout):
//
//   corpus — for every BLIF+genlib pair under tests/data/golden, maps
//            with dag_map and with cut_map (default knobs) and records
//            delay/area/gates for both.  Asserts the backend contract:
//            the cut cover is simulation-equivalent to the source
//            circuit, its delay is <= the structural delay on EVERY
//            circuit (the candidate union argument), strictly better on
//            at least one, and bit-identical at 1/2/4/8 threads.
//   scale  — a 1M-node random NAND2/INV subject graph mapped by both
//            backends under the lib2-like library (all hardware
//            threads), with wall-clock seconds and the cut run's
//            per-phase telemetry (`bench::phases_json`).
//
// Exits nonzero when any contract above fails; never on timing.
//
// Usage: bench_cutmap [out.json]   (default BENCH_cutmap.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_runner.hpp"
#include "dagmap/dagmap.hpp"
#include "mapnet/write.hpp"

using namespace dagmap;

namespace {

constexpr double kEps = 1e-9;

std::string golden_path(const std::string& rel) {
  return std::string(DAGMAP_GOLDEN_DIR) + "/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Corpus stems, in golden.expect order (skipping "+supergates" entries —
// the backend comparison uses each stem's base library).
std::vector<std::string> corpus_stems() {
  std::ifstream in(golden_path("golden.expect"));
  if (!in.good()) throw std::runtime_error("missing golden.expect");
  std::vector<std::string> stems;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find(' '));
    if (name.find('+') != std::string::npos) continue;
    stems.push_back(name);
  }
  return stems;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  std::string out_path = argc > 1 ? argv[1] : "BENCH_cutmap.json";
  bool ok = true;
  int strict_wins = 0;
  bool deterministic = true;
  std::ostringstream rows;

  for (const std::string& stem : corpus_stems()) {
    Network circuit = parse_blif(slurp(golden_path(stem + ".blif")));
    GateLibrary lib = GateLibrary::from_genlib(
        parse_genlib(slurp(golden_path(stem + ".genlib"))), stem);
    Network subject = tech_decompose(circuit);

    MapResult structural = dag_map(subject, lib, {});
    MapResult cuts = cut_map(subject, lib, {});

    bool equivalent =
        check_equivalence(circuit, cuts.netlist.to_network()).equivalent;
    bool never_worse = cuts.optimal_delay <= structural.optimal_delay + kEps;
    bool strict = cuts.optimal_delay < structural.optimal_delay - kEps;
    if (!equivalent || !never_worse) ok = false;
    if (strict) ++strict_wins;

    // Determinism: same labels and mapped bytes at 1/2/4/8 threads.
    std::string blif1 = write_mapped_blif(cuts.netlist);
    for (unsigned threads : {2u, 4u, 8u}) {
      CutMapOptions copt;
      copt.num_threads = threads;
      MapResult again = cut_map(subject, lib, copt);
      if (again.label != cuts.label ||
          write_mapped_blif(again.netlist) != blif1)
        deterministic = false;
    }

    if (rows.tellp() > 0) rows << ",";
    rows << "{\"name\":\"" << stem
         << "\",\"structural_delay\":" << structural.optimal_delay
         << ",\"cut_delay\":" << cuts.optimal_delay
         << ",\"structural_area\":" << structural.netlist.total_area()
         << ",\"cut_area\":" << cuts.netlist.total_area()
         << ",\"structural_gates\":" << structural.netlist.num_gates()
         << ",\"cut_gates\":" << cuts.netlist.num_gates()
         << ",\"strict_win\":" << (strict ? "true" : "false")
         << ",\"equivalent\":" << (equivalent ? "true" : "false") << "}";
    std::fprintf(stderr,
                 "bench_cutmap: %-16s structural %.3f, cuts %.3f%s\n",
                 stem.c_str(), structural.optimal_delay, cuts.optimal_delay,
                 strict ? "  (strict win)" : "");
  }
  if (strict_wins < 1) ok = false;
  if (!deterministic) ok = false;

  // Scale: 1M-node subject graph, both backends at full thread count.
  Network big = make_random_subject_graph(1'000'000, 64, 32, 0xC07B15);
  GateLibrary lib2 = make_lib2_library();

  auto t0 = std::chrono::steady_clock::now();
  MapResult big_structural =
      dag_map(big, lib2, {.num_threads = 0});
  double structural_seconds = seconds_since(t0);

  CutMapOptions big_opt;
  big_opt.num_threads = 0;
  big_opt.profile = true;
  t0 = std::chrono::steady_clock::now();
  MapResult big_cuts = cut_map(big, lib2, big_opt);
  double cut_seconds = seconds_since(t0);
  if (big_cuts.optimal_delay > big_structural.optimal_delay + kEps) ok = false;

  std::fprintf(stderr,
               "bench_cutmap: 1M-node subject: structural %.3f in %.2fs, "
               "cuts %.3f in %.2fs\n",
               big_structural.optimal_delay, structural_seconds,
               big_cuts.optimal_delay, cut_seconds);

  std::ostringstream json;
  json << "{\"bench\":\"cutmap\",\"circuits\":[" << rows.str() << "],"
       << "\"strict_wins\":" << strict_wins
       << ",\"deterministic\":" << (deterministic ? "true" : "false")
       << ",\"scale\":{\"nodes\":" << big.num_internal()
       << ",\"structural_delay\":" << big_structural.optimal_delay
       << ",\"cut_delay\":" << big_cuts.optimal_delay
       << ",\"structural_area\":" << big_structural.netlist.total_area()
       << ",\"cut_area\":" << big_cuts.netlist.total_area()
       << ",\"structural_seconds\":" << structural_seconds
       << ",\"cut_seconds\":" << cut_seconds
       << ",\"phases\":" << bench::phases_json(big_cuts.profile) << "}"
       << ",\"ok\":" << (ok ? "true" : "false") << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_cutmap: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::fputs(json.str().c_str(), stdout);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_cutmap: %s\n", e.what());
  return 1;
}
