// bench_matcher — labeling-phase microbenchmark for the pattern index
// and the parallel wavefront labeler.
//
// Workload: the 16x16 array multiplier (C6288's structure), the hot case
// for match enumeration, against lib2 (27 gates) and the 44-3-style
// library (625 gates, patterns to 16 inputs).  Two measurements per
// library:
//
//   * raw matcher throughput — one `for_each_match` sweep over every
//     internal node, index off (the seed enumeration path) vs on;
//   * end-to-end labeling — `dag_map` at 1 thread/no index (seed
//     behavior) vs 4 threads/index (this PR), checked bit-identical.
//
// Emits one JSON line per library so successive PRs can track a
// BENCH_matcher.json trajectory:
//
//   {"bench": "matcher", "library": ..., "nodes": ..., "matches": ...,
//    "ns_per_node": ..., "pruned_pct": ..., "speedup": ...}
//
// `ns_per_node` is the indexed sweep; `pruned_pct` the share of
// (root, pattern) pairs rejected before a walk by the shape automaton
// (DESIGN.md §7); `speedup` the end-to-end
// labeling ratio (seed sequential / 4-thread indexed).  Exits nonzero
// if the two dag_map configurations disagree (determinism guarantee).
//
// Usage: bench_matcher [multiplier_bits]   (default 16)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table_runner.hpp"
#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

using namespace dagmap;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One full for_each_match sweep; returns (seconds, matches seen).
std::pair<double, std::uint64_t> sweep(const Matcher& matcher,
                                       const Network& subject) {
  std::uint64_t matches = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (NodeId n = 0; n < subject.size(); ++n) {
    if (subject.is_source(n)) continue;
    matcher.for_each_match(n, MatchClass::Standard,
                           [&](const MatchView&) { ++matches; });
  }
  return {seconds_since(t0), matches};
}

int run_library(const char* label, const GateLibrary& lib,
                const Network& subject) {
  std::size_t internal = subject.num_internal();

  Matcher unindexed(lib, subject, {.use_signature_index = false});
  auto [sec_off, matches_off] = sweep(unindexed, subject);

  Matcher indexed(lib, subject, {.use_signature_index = true});
  auto [sec_on, matches_on] = sweep(indexed, subject);

  MatchStats st = indexed.stats();
  std::uint64_t considered = st.attempts + st.pruned;
  double pruned_pct =
      considered == 0 ? 0.0
                      : 100.0 * static_cast<double>(st.pruned) /
                            static_cast<double>(considered);

  // End-to-end labeling: seed behavior vs this PR's configuration.
  DagMapOptions seed_opt;
  seed_opt.num_threads = 1;
  seed_opt.use_signature_index = false;
  auto t0 = std::chrono::steady_clock::now();
  MapResult seed = dag_map(subject, lib, seed_opt);
  double sec_seed = seconds_since(t0);

  DagMapOptions new_opt;
  new_opt.num_threads = 4;
  new_opt.use_signature_index = true;
  new_opt.profile = true;  // per-phase breakdown for the JSON line
  t0 = std::chrono::steady_clock::now();
  MapResult fast = dag_map(subject, lib, new_opt);
  double sec_new = seconds_since(t0);

  bool identical = seed.optimal_delay == fast.optimal_delay &&
                   seed.label == fast.label &&
                   seed.netlist.gate_histogram() == fast.netlist.gate_histogram();

  std::printf(
      "{\"bench\": \"matcher\", \"library\": \"%s\", \"nodes\": %zu, "
      "\"matches\": %llu, \"matches_per_sec\": %.0f, \"ns_per_node\": %.1f, "
      "\"attempts\": %llu, \"pruned\": %llu, \"pruned_pct\": %.1f, "
      "\"sweep_speedup\": %.2f, \"label_ms_seed\": %.1f, "
      "\"label_ms_new\": %.1f, \"speedup\": %.2f, \"threads\": 4, "
      "\"identical\": %s, \"phases\": %s}\n",
      label, internal, static_cast<unsigned long long>(matches_on),
      static_cast<double>(matches_on) / sec_on,
      1e9 * sec_on / static_cast<double>(internal),
      static_cast<unsigned long long>(st.attempts),
      static_cast<unsigned long long>(st.pruned), pruned_pct,
      sec_off / sec_on, 1e3 * sec_seed, 1e3 * sec_new, sec_seed / sec_new,
      identical ? "true" : "false",
      bench::phases_json(fast.profile).c_str());

  if (matches_off != matches_on) {
    std::fprintf(stderr, "FAIL: index changed the match count (%llu vs %llu)\n",
                 static_cast<unsigned long long>(matches_off),
                 static_cast<unsigned long long>(matches_on));
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: 4-thread indexed dag_map differs from seed dag_map\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned bits = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 16;
  Network subject = tech_decompose(make_array_multiplier(bits));

  int rc = 0;
  rc |= run_library("lib2", make_lib2_library(), subject);
  rc |= run_library("44-3", make_44_library(3), subject);
  return rc;
}
