#include "common/table_runner.hpp"

#include <cmath>
#include <cstdio>
#include <thread>

#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "sim/simulator.hpp"
#include "treemap/tree_mapper.hpp"

namespace dagmap::bench {

std::vector<TableRow> run_table(const GateLibrary& lib,
                                const TableOptions& options) {
  auto suite =
      options.small_suite ? make_small_suite() : make_iscas85_like_suite();
  std::vector<TableRow> rows;
  for (const auto& b : suite) {
    Network subject = tech_decompose(b.network);
    TableRow row;
    row.circuit = b.name;
    row.subject_nodes = subject.num_internal();

    MapResult tree = tree_map(subject, lib);
    row.tree_delay = tree.optimal_delay;
    row.tree_area = tree.netlist.total_area();
    row.tree_cpu = tree.cpu_seconds;

    DagMapOptions opt;
    opt.match_class = options.match_class;
    MapResult dag = dag_map(subject, lib, opt);
    row.dag_delay = dag.optimal_delay;
    row.dag_area = dag.netlist.total_area();
    row.dag_cpu = dag.cpu_seconds;

    if (options.verify) {
      row.equivalent =
          check_equivalence(subject, tree.netlist.to_network()).equivalent &&
          check_equivalence(subject, dag.netlist.to_network()).equivalent;
    }
    rows.push_back(row);
  }
  return rows;
}

void print_table(const std::string& title, const GateLibrary& lib,
                 const std::vector<TableRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("library: %s (%zu gates, %zu patterns, max %u inputs)\n",
              lib.name().c_str(), lib.size(), lib.total_patterns(),
              lib.max_gate_inputs());
  std::printf(
      "%-12s %6s | %8s %8s %6s | %9s %9s %7s | %7s %7s | %s\n", "circuit",
      "nodes", "D(tree)", "D(dag)", "ratio", "A(tree)", "A(dag)", "ratio",
      "t(tree)", "t(dag)", "equiv");
  std::printf(
      "--------------------+---------------------------+------------------"
      "-----------+-----------------+------\n");
  double dgeo = 0, ageo = 0;
  for (const TableRow& r : rows) {
    double dr = r.tree_delay > 0 ? r.dag_delay / r.tree_delay : 1.0;
    double ar = r.tree_area > 0 ? r.dag_area / r.tree_area : 1.0;
    dgeo += std::log(dr);
    ageo += std::log(ar);
    std::printf(
        "%-12s %6zu | %8.2f %8.2f %6.2f | %9.0f %9.0f %7.2f | %7.2f %7.2f | "
        "%s\n",
        r.circuit.c_str(), r.subject_nodes, r.tree_delay, r.dag_delay, dr,
        r.tree_area, r.dag_area, ar, r.tree_cpu, r.dag_cpu,
        r.equivalent ? "yes" : "NO!");
  }
  if (!rows.empty()) {
    std::printf("geometric mean delay ratio (dag/tree): %.3f\n",
                std::exp(dgeo / rows.size()));
    std::printf("geometric mean area  ratio (dag/tree): %.3f\n",
                std::exp(ageo / rows.size()));
  }
}

std::string phases_json(const obs::ProfileData& profile) {
  std::string out = "{";
  for (const obs::PhaseSummary& p : profile.phases) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6f",
                  out.size() > 1 ? ", " : "", p.name.c_str(), p.seconds);
    out += buf;
  }
  out += "}";
  return out;
}

std::string build_meta_json() {
  std::string rev;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) rev += buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  if (rev.empty()) rev = "unknown";
  return "{\"git_sha\": \"" + rev + "\", \"build_type\": \"" +
         DAGMAP_BUILD_TYPE + "\", \"compiler\": \"" + DAGMAP_COMPILER +
         "\", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

}  // namespace dagmap::bench
