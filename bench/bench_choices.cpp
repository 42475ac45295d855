// bench_choices — DAG covering over decomposition choices
// (Lehman–Watanabe) vs the single fixed decomposition, on the Table-3
// library (44-3-like, 625 gates) and the nine-circuit suite.
//
// The paper: "Since this technique is orthogonal to our technique, the
// two can be combined to produce even better results."  This bench
// measures the combination through the first-class choice layer
// (decomp/choices.hpp + netlist/choice_classes.hpp): the same
// choice-annotated subject graph is mapped by the structural backend
// (dag_map) and the priority-cut backend (cut_map), and both are held
// to D(choices) <= D(single).  The bound is provable, not just
// empirical: every class carries the balanced decomposition of both
// phases, so the single subject is a slice of the choice subject and
// per-class pricing can only lower leaf prices from there.  Strict
// improvement is required on at least 3 of the 9 circuits.
//
// One JSON object is written (default BENCH_choices.json, echoed on
// stdout): per-circuit D(single)/D(choices) for both backends, class
// statistics, and the per-phase telemetry of the last structural
// choice run (`bench::phases_json`).
//
// Usage: bench_choices [out.json]   (default BENCH_choices.json)
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/table_runner.hpp"
#include "dagmap/dagmap.hpp"
#include "decomp/choices.hpp"
#include "library/standard_libs.hpp"

using namespace dagmap;

namespace {
constexpr double kEps = 1e-9;
}

int main(int argc, char** argv) try {
  std::string out_path = argc > 1 ? argv[1] : "BENCH_choices.json";
  GateLibrary lib = make_44_library(3);

  std::printf("Decomposition choices ablation (44-3-like, both backends)\n");
  std::printf("%-12s %6s %5s | %10s %10s %8s | %10s %6s\n", "circuit",
              "class", "wins", "D(single)", "D(choices)", "ratio", "D(cut)",
              "equiv");

  bool ok = true;
  int strict_wins = 0;
  double geo = 0;
  int n = 0;
  std::ostringstream rows;
  obs::ProfileData last_profile;

  for (const auto& b : make_iscas85_like_suite()) {
    Network single = tech_decompose(b.network);
    ChoiceDecomposition choice = tech_decompose_choices(b.network);
    choice.validate();

    MapResult off = dag_map(single, lib);

    DagMapOptions mopt;
    mopt.choices = &choice.classes;
    mopt.profile = true;
    MapResult on = dag_map(choice.subject, lib, mopt);
    last_profile = on.profile;

    CutMapOptions copt;
    copt.choices = &choice.classes;
    MapResult cut_on = cut_map(choice.subject, lib, copt);

    bool equivalent =
        check_equivalence(b.network, on.netlist.to_network()).equivalent &&
        check_equivalence(b.network, cut_on.netlist.to_network()).equivalent;
    bool never_worse = on.optimal_delay <= off.optimal_delay + kEps &&
                       cut_on.optimal_delay <= off.optimal_delay + kEps;
    bool strict = on.optimal_delay < off.optimal_delay - kEps;
    if (!equivalent || !never_worse) ok = false;
    if (strict) ++strict_wins;

    double ratio = on.optimal_delay / off.optimal_delay;
    geo += std::log(ratio);
    ++n;
    std::printf("%-12s %6zu %5zu | %10.2f %10.2f %8.4f | %10.2f %6s\n",
                b.name.c_str(), on.choice_classes, on.choice_wins,
                off.optimal_delay, on.optimal_delay, ratio,
                cut_on.optimal_delay, equivalent ? "yes" : "NO!");

    if (rows.tellp() > 0) rows << ",";
    rows << "{\"name\":\"" << b.name
         << "\",\"choice_classes\":" << on.choice_classes
         << ",\"choice_variants\":" << on.choice_variants
         << ",\"choice_wins\":" << on.choice_wins
         << ",\"single_delay\":" << off.optimal_delay
         << ",\"choice_delay\":" << on.optimal_delay
         << ",\"cut_choice_delay\":" << cut_on.optimal_delay
         << ",\"single_area\":" << off.netlist.total_area()
         << ",\"choice_area\":" << on.netlist.total_area()
         << ",\"strict_win\":" << (strict ? "true" : "false")
         << ",\"equivalent\":" << (equivalent ? "true" : "false") << "}";
  }

  if (strict_wins < 3) ok = false;
  std::printf("geometric mean delay ratio choices/single: %.4f\n",
              std::exp(geo / n));
  std::printf("strict wins: %d of %d (need >= 3)\n", strict_wins, n);
  std::printf(
      "\npaper (§4): decomposition choices are orthogonal to DAG covering\n"
      "and combine with it — the ratio must be <= 1.0 on both backends.\n");

  std::ostringstream json;
  json << "{\"bench\":\"choices\",\"meta\":" << bench::build_meta_json()
       << ",\"library\":\"" << lib.name()
       << "\",\"circuits\":[" << rows.str() << "],"
       << "\"strict_wins\":" << strict_wins
       << ",\"phases\":" << bench::phases_json(last_profile)
       << ",\"ok\":" << (ok ? "true" : "false") << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_choices: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::fputs(json.str().c_str(), stdout);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_choices: %s\n", e.what());
  return 1;
}
