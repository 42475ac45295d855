// bench_pipeline — the depth-wavefront labeling schedule at 1M-node
// scale, swept over 1, 2 and 4 worker threads, and the whole CLI job
// around it.
//
// Two subjects, both mapped with the lib2-like library:
//
//   random      — make_random_subject_graph(1'000'000, 256, 256, 1), the
//                 shape of perfbench's `big_subject`: shallow, so each
//                 depth wave is wide;
//   multiplier  — tech_decompose(make_array_multiplier(256)), ~1.1M
//                 internal nodes: reconvergent and circuit-shaped, with
//                 thousands of narrower depth waves.
//
// The `cli` row is `dagmap_cli --library lib2 --profile --out` on the
// random subject written as BLIF: read -> library.build -> decompose ->
// map -> verify -> write -> release, through `run_request`, in one
// profiling session per run.  It records the wall time of the whole job and its
// top-level phases; every run's mapped BLIF must be byte-identical.
//
// Each (subject, thread count) cell runs `reps` times, round-robin over
// the thread counts so host noise spreads over all of them; the cell
// records the minimum and median wall time, the minimum `label` phase,
// and the phases of its fastest run (`bench::phases_json`).  Every run
// then writes its netlist as mapped BLIF (`write_mapped_blif`, the
// `write` stage of an end-to-end job, outside the mapping wall time);
// the subject records the fastest write, the BLIF byte count and its
// FNV-1a.  Every run must be bit-identical to the subject's first
// 1-thread run (labels, delay, netlist structural hash, BLIF bytes —
// the determinism contract).  One JSON object goes to the output file
// and stdout, stamped with the build (`bench::build_meta_json`).
//
// Exits nonzero only on a determinism violation, never on timing.
//
// Usage: bench_pipeline [reps] [out.json]
//        (defaults: 5 BENCH_pipeline.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/table_runner.hpp"
#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "libcache/binio.hpp"
#include "libcache/request.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"

using namespace dagmap;

namespace {

constexpr unsigned kThreads[] = {1, 2, 4};

double phase_seconds(const obs::ProfileData& profile, const char* name) {
  for (const obs::PhaseSummary& p : profile.phases)
    if (p.name == name) return p.seconds;
  return 0.0;
}

struct Cell {
  std::vector<double> wall;
  double label_min = std::numeric_limits<double>::infinity();
  std::string phases;  ///< of the fastest run
};

/// Sweeps one subject; returns its JSON object and clears `identical`
/// on any run that differs from the first 1-thread run.
std::string sweep(const char* name, const Network& subject,
                  const GateLibrary& lib, unsigned reps, bool& identical) {
  std::vector<Cell> cells(std::size(kThreads));
  std::vector<double> ref_label;
  double ref_delay = 0.0, ref_area = 0.0;
  double write_min = std::numeric_limits<double>::infinity();
  std::uint64_t ref_hash = 0, ref_blif_hash = 0, waves = 0;
  std::size_t ref_gates = 0, ref_blif_bytes = 0;
  for (unsigned r = 0; r < reps; ++r) {
    for (std::size_t t = 0; t < std::size(kThreads); ++t) {
      MapOptions o;
      o.num_threads = kThreads[t];
      o.profile = true;
      auto t0 = std::chrono::steady_clock::now();
      MapResult res = dag_map(subject, lib, o);
      double wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      std::uint64_t hash = res.netlist.structural_hash();
      auto w0 = std::chrono::steady_clock::now();
      std::string blif = write_mapped_blif(res.netlist);
      double write = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - w0)
                         .count();
      write_min = std::min(write_min, write);
      std::uint64_t blif_hash = libcache::fnv1a64(blif);
      if (ref_label.empty()) {
        ref_label = std::move(res.label);
        ref_delay = res.optimal_delay;
        ref_area = res.netlist.total_area();
        ref_hash = hash;
        ref_blif_hash = blif_hash;
        ref_blif_bytes = blif.size();
        ref_gates = res.netlist.num_gates();
        waves = res.profile.counters.count("label.waves")
                    ? res.profile.counters.at("label.waves")
                    : 0;
      } else if (res.label != ref_label || res.optimal_delay != ref_delay ||
                 hash != ref_hash || blif_hash != ref_blif_hash ||
                 blif.size() != ref_blif_bytes) {
        std::fprintf(stderr,
                     "bench_pipeline: DETERMINISM VIOLATION — %s at %u "
                     "threads differs from 1 thread\n",
                     name, kThreads[t]);
        identical = false;
      }
      Cell& c = cells[t];
      double label = phase_seconds(res.profile, "label");
      if (c.wall.empty() || wall < *std::ranges::min_element(c.wall))
        c.phases = bench::phases_json(res.profile);
      c.label_min = std::min(c.label_min, label);
      c.wall.push_back(wall);
      std::fprintf(stderr,
                   "bench_pipeline: %s %ut rep %u: %.3fs (label %.3fs, "
                   "write %.3fs)\n",
                   name, kThreads[t], r, wall, label, write);
    }
  }

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\": \"%s\", \"internal_nodes\": %zu, \"waves\": %llu, "
                "\"delay\": %.6f, \"area\": %.1f, \"gates\": %zu, "
                "\"netlist_hash\": \"%016llx\", \"blif_bytes\": %zu, "
                "\"blif_fnv1a\": \"%016llx\", \"write_s_min\": %.3f, "
                "\"threads\": [",
                name, subject.num_internal(),
                static_cast<unsigned long long>(waves), ref_delay, ref_area,
                ref_gates, static_cast<unsigned long long>(ref_hash),
                ref_blif_bytes, static_cast<unsigned long long>(ref_blif_hash),
                write_min);
  std::string json = buf;
  for (std::size_t t = 0; t < cells.size(); ++t) {
    std::vector<double> w = cells[t].wall;
    std::sort(w.begin(), w.end());
    std::snprintf(buf, sizeof buf,
                  "%s{\"threads\": %u, \"wall_s_min\": %.3f, "
                  "\"wall_s_median\": %.3f, \"label_s_min\": %.3f, "
                  "\"phases_fastest\": ",
                  t ? ", " : "", kThreads[t], w.front(), w[w.size() / 2],
                  cells[t].label_min);
    json += buf + cells[t].phases + "}";
  }
  return json + "]}";
}

/// The CLI job on `subject` written as BLIF, at every thread count;
/// returns its JSON object and clears `identical` when a run's mapped
/// BLIF differs from the first run's.
std::string cli_sweep(const Network& subject, unsigned reps,
                      bool& identical) {
  std::string path =
      (std::filesystem::temp_directory_path() / "bench_pipeline_cli.blif")
          .string();
  write_blif_file(subject, path);
  std::size_t blif_in_bytes = std::filesystem::file_size(path);
  std::vector<Cell> cells(std::size(kThreads));
  std::uint64_t ref_hash = 0;
  std::size_t ref_bytes = 0, ref_gates = 0;
  double ref_coverage = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    for (std::size_t t = 0; t < std::size(kThreads); ++t) {
      MapRequest req;
      req.verify = true;
      req.map.profile = true;
      req.map.num_threads = kThreads[t];
      auto t0 = std::chrono::steady_clock::now();
      obs::start();
      Network circuit = [&] {
        obs::Scope scope("read");
        return read_blif_file(path);
      }();
      CompiledLibrary lib = [&] {
        obs::Scope scope("library.build");
        LibCompileOptions copt;
        copt.num_threads = kThreads[t];
        return compile_library(lib2_genlib_text(), copt, "lib2-like");
      }();
      RequestResult res = run_request(circuit, lib, req);
      std::string blif;
      {
        obs::Scope scope("write");
        blif = write_mapped_blif(res.result.netlist);
      }
      std::size_t gates = res.result.netlist.num_gates();
      bool ok = res.equivalent.value_or(false);
      {
        obs::Scope scope("release");
        circuit = Network();
        res = RequestResult();
      }
      obs::stop();
      obs::ProfileData profile = obs::collect();
      double wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      std::uint64_t hash = libcache::fnv1a64(blif);
      if (r == 0 && t == 0) {
        ref_hash = hash;
        ref_bytes = blif.size();
        ref_gates = gates;
      } else if (hash != ref_hash || blif.size() != ref_bytes) {
        std::fprintf(stderr,
                     "bench_pipeline: DETERMINISM VIOLATION — cli at %u "
                     "threads differs from 1 thread\n",
                     kThreads[t]);
        identical = false;
      }
      if (!ok) {
        std::fprintf(stderr, "bench_pipeline: cli verification failed\n");
        identical = false;
      }
      Cell& c = cells[t];
      if (c.wall.empty() || wall < *std::ranges::min_element(c.wall)) {
        c.phases = bench::phases_json(profile);
        double covered = 0.0;
        for (const obs::PhaseSummary& p : profile.phases) covered += p.seconds;
        if (t == 0) ref_coverage = covered / profile.total_seconds;
      }
      c.label_min = std::min(c.label_min, phase_seconds(profile, "label"));
      c.wall.push_back(wall);
      std::fprintf(stderr, "bench_pipeline: cli %ut rep %u: %.3fs\n",
                   kThreads[t], r, wall);
    }
  }
  std::filesystem::remove(path);

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\": \"cli\", \"blif_in_bytes\": %zu, "
                "\"gates\": %zu, \"blif_bytes\": %zu, "
                "\"blif_fnv1a\": \"%016llx\", "
                "\"phase_coverage_1t\": %.4f, \"threads\": [",
                blif_in_bytes, ref_gates, ref_bytes,
                static_cast<unsigned long long>(ref_hash), ref_coverage);
  std::string json = buf;
  for (std::size_t t = 0; t < cells.size(); ++t) {
    std::vector<double> w = cells[t].wall;
    std::sort(w.begin(), w.end());
    std::snprintf(buf, sizeof buf,
                  "%s{\"threads\": %u, \"wall_s_min\": %.3f, "
                  "\"wall_s_median\": %.3f, \"label_s_min\": %.3f, "
                  "\"phases_fastest\": ",
                  t ? ", " : "", kThreads[t], w.front(), w[w.size() / 2],
                  cells[t].label_min);
    json += buf + cells[t].phases + "}";
  }
  return json + "]}";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned reps = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 5;
  std::string out_path = argc > 2 ? argv[2] : "BENCH_pipeline.json";
  if (reps == 0) reps = 1;

  GateLibrary lib = make_lib2_library();
  bool identical = true;
  std::string json = "{\"bench\": \"pipeline\", \"meta\": " +
                     bench::build_meta_json() +
                     ", \"reps\": " + std::to_string(reps) +
                     ", \"subjects\": [";
  {
    Network random = make_random_subject_graph(1'000'000, 256, 256, 1);
    json += sweep("random", random, lib, reps, identical);
    json += ", ";
    json += cli_sweep(random, reps, identical);
  }
  json += ", ";
  json += sweep("multiplier", tech_decompose(make_array_multiplier(256)), lib,
                reps, identical);
  json += std::string("], \"identical\": ") + (identical ? "true" : "false") +
          "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_pipeline: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << json;
  std::fputs(json.c_str(), stdout);
  return identical ? 0 : 1;
}
