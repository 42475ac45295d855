// bench_loadmap — iterated load-aware rounds vs the load-oblivious flow.
//
// Two parts, one JSON object (written to BENCH_loadmap.json and echoed
// on stdout):
//
//   corpus — for every BLIF+genlib pair under tests/data/golden, maps
//            load-obliviously and with load_rounds=3, measuring both
//            under the same LoadModel.  Asserts the keep-best contract:
//            the load-aware measured delay is <= the load-oblivious
//            round 0 on EVERY circuit and the re-mapped cover stays
//            simulation-equivalent.
//   suite  — the ISCAS-85-like suite mapped against the Liberty-subset
//            golden library (io/liberty.hpp end-to-end: NLDM tables
//            collapsed to block+slope), load_rounds=2 for both the
//            structural and the priority-cut backend, with wall-clock
//            seconds per flow.  Here fanout loads are heavy enough to
//            matter, so at least one circuit must improve strictly —
//            the golden corpus alone is too small to demand that.
//
// Exits nonzero when any contract above fails; never on timing.
//
// Usage: bench_loadmap [out.json]   (default BENCH_loadmap.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_runner.hpp"
#include "dagmap/dagmap.hpp"
#include "io/liberty.hpp"

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
// each stem is benchmarked against its own base library).
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
  std::string out_path = argc > 1 ? argv[1] : "BENCH_loadmap.json";
  bool ok = true;
  int strict_wins = 0;
  std::ostringstream rows;

  for (const std::string& stem : corpus_stems()) {
    Network circuit = parse_blif(slurp(golden_path(stem + ".blif")));
    GateLibrary lib = GateLibrary::from_genlib(
        parse_genlib(slurp(golden_path(stem + ".genlib"))), stem);
    Network subject = tech_decompose(circuit);

    DagMapOptions opt;
    opt.load_rounds = 3;
    MapResult r = dag_map(subject, lib, opt);

    bool equivalent =
        check_equivalence(circuit, r.netlist.to_network()).equivalent;
    bool never_worse = r.loaded_delay <= r.loaded_delay_round0 + kEps;
    bool strict = r.loaded_delay < r.loaded_delay_round0 - kEps;
    if (!equivalent || !never_worse) ok = false;
    if (strict) ++strict_wins;

    if (rows.tellp() > 0) rows << ",";
    rows << "{\"name\":\"" << stem
         << "\",\"oblivious_loaded_delay\":" << r.loaded_delay_round0
         << ",\"aware_loaded_delay\":" << r.loaded_delay
         << ",\"selected_round\":" << r.load_round_selected
         << ",\"area\":" << r.netlist.total_area()
         << ",\"strict_win\":" << (strict ? "true" : "false")
         << ",\"equivalent\":" << (equivalent ? "true" : "false") << "}";
    std::fprintf(stderr,
                 "bench_loadmap: %-16s oblivious %.3f, load-aware %.3f "
                 "(round %u)%s\n",
                 stem.c_str(), r.loaded_delay_round0, r.loaded_delay,
                 r.load_round_selected, strict ? "  (strict win)" : "");
  }

  // Suite: ISCAS-85-like circuits against the Liberty-ingested golden
  // library, both backends, load_rounds=2.
  LibertyLibrary liberty = parse_liberty(slurp(golden_path("../golden.lib")));
  GateLibrary lib = GateLibrary::from_genlib(liberty.gates, liberty.name);
  std::ostringstream suite_rows;
  for (const auto& b : make_iscas85_like_suite()) {
    Network subject = tech_decompose(b.network);

    DagMapOptions dopt;
    dopt.load_rounds = 2;
    auto t0 = std::chrono::steady_clock::now();
    MapResult structural = dag_map(subject, lib, dopt);
    double structural_seconds = seconds_since(t0);

    CutMapOptions copt;
    copt.load_rounds = 2;
    t0 = std::chrono::steady_clock::now();
    MapResult cuts = cut_map(subject, lib, copt);
    double cut_seconds = seconds_since(t0);

    if (structural.loaded_delay > structural.loaded_delay_round0 + kEps)
      ok = false;
    if (cuts.loaded_delay > cuts.loaded_delay_round0 + kEps) ok = false;
    if (structural.loaded_delay < structural.loaded_delay_round0 - kEps ||
        cuts.loaded_delay < cuts.loaded_delay_round0 - kEps)
      ++strict_wins;

    if (suite_rows.tellp() > 0) suite_rows << ",";
    suite_rows << "{\"name\":\"" << b.name
               << "\",\"nodes\":" << subject.num_internal()
               << ",\"structural_oblivious\":" << structural.loaded_delay_round0
               << ",\"structural_aware\":" << structural.loaded_delay
               << ",\"structural_seconds\":" << structural_seconds
               << ",\"cut_oblivious\":" << cuts.loaded_delay_round0
               << ",\"cut_aware\":" << cuts.loaded_delay
               << ",\"cut_seconds\":" << cut_seconds << "}";
    std::fprintf(stderr,
                 "bench_loadmap: %-12s structural %.3f -> %.3f (%.2fs), "
                 "cuts %.3f -> %.3f (%.2fs)\n",
                 b.name.c_str(), structural.loaded_delay_round0,
                 structural.loaded_delay, structural_seconds,
                 cuts.loaded_delay_round0, cuts.loaded_delay, cut_seconds);
  }
  if (strict_wins < 1) ok = false;

  std::ostringstream json;
  json << "{\"bench\":\"loadmap\",\"meta\":" << bench::build_meta_json()
       << ",\"circuits\":[" << rows.str() << "],"
       << "\"strict_wins\":" << strict_wins
       << ",\"liberty_cells\":" << lib.size()
       << ",\"suite\":[" << suite_rows.str() << "]"
       << ",\"ok\":" << (ok ? "true" : "false") << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_loadmap: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::fputs(json.str().c_str(), stdout);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_loadmap: %s\n", e.what());
  return 1;
}
