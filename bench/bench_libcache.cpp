// bench_libcache — compiled-library cache: cold compile vs warm load.
//
// For each configuration (the lib2-like 27-gate library, base and
// supergate-depth-2, and the 625-gate 44-3 library, base), measures:
//
//   cold  — parse_genlib + (optional supergate generation) + GateLibrary
//           build + pattern pre-index + NPN classes (compile_library);
//   warm  — save the artifact once, then load_compiled_library_file
//           from disk (deserialize + validation + base-gate scan).
//
// Verifies the warm bundle is usable (bit-identical mapping artifact
// hash on a small circuit against the cold bundle), and writes one JSON
// object per configuration into BENCH_libcache.json, stamped with the
// git revision, build type, compiler and hardware_concurrency.  The serve-mode
// promise is the `speedup` column: warm load must beat cold compile by
// >= 10x on the supergate-depth-2 configuration (that is where the cold
// cost lives — generation enumerates thousands of compositions).
//
// Exits nonzero on a correctness violation (warm != cold mapping, load
// failure), never on timing.
//
// Usage: bench_libcache [out.json]   (default BENCH_libcache.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/genlib.hpp"
#include "libcache/compiled_library.hpp"
#include "library/standard_libs.hpp"

using namespace dagmap;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Config {
  const char* name;
  const std::string* genlib_text;
  unsigned depth;
  unsigned cold_reps;  ///< cold compile repetitions (cheap configs repeat)
};

/// `git describe --always --dirty` of the working directory, or
/// "unknown" outside a checkout.
std::string git_revision() {
  std::string rev;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) rev += buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = argc > 1 ? argv[1] : "BENCH_libcache.json";
  const std::string lib44_text = write_genlib(make_44_genlib(3));
  std::string artifact_path = out_path + ".dmlc.tmp";

  // The subject the correctness cross-check maps (small, fixed seed).
  Network circuit = make_random_dag(8, 64, 4, 0x11BCACE);
  Network subject = tech_decompose(circuit);

  std::string json = "{\"bench\": \"libcache\", \"meta\": {\"git_sha\": \"" +
                     git_revision() + "\", \"build_type\": \"" +
                     DAGMAP_BUILD_TYPE + "\", \"compiler\": \"" +
                     DAGMAP_COMPILER + "\", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     "}, \"configs\": [";
  bool ok = true;
  bool first = true;
  bool depth2_meets_10x = false;
  for (Config cfg : {Config{"lib2_base", &lib2_genlib_text(), 0, 5},
                     Config{"lib2_super2", &lib2_genlib_text(), 2, 1},
                     Config{"lib44_3_base", &lib44_text, 0, 5}}) {
    const std::string& genlib_text = *cfg.genlib_text;
    LibCompileOptions copt;
    copt.supergate_depth = cfg.depth;

    // Cold: full compile from genlib text.
    auto t0 = std::chrono::steady_clock::now();
    CompiledLibrary cold = compile_library(genlib_text, copt, cfg.name);
    for (unsigned r = 1; r < cfg.cold_reps; ++r)
      compile_library(genlib_text, copt, cfg.name);
    double cold_seconds = seconds_since(t0) / cfg.cold_reps;

    // Warm: artifact from disk.  Save once (not timed), then load
    // repeatedly; the first load is reported (cold page cache is the
    // honest serve-restart story, and reps only lower the number).
    save_compiled_library_file(cold, artifact_path);
    t0 = std::chrono::steady_clock::now();
    LibraryLoadResult warm = load_compiled_library_file(artifact_path);
    double warm_seconds = seconds_since(t0);
    if (!warm.ok) {
      std::fprintf(stderr, "bench_libcache: load failed: %s\n",
                   warm.error.c_str());
      ok = false;
      break;
    }

    // Correctness: warm and cold bundles map bit-identically.
    DagMapOptions cold_opt, warm_opt;
    cold_opt.pattern_index = &cold.index;
    warm_opt.pattern_index = &warm.lib.index;
    MapResult cold_map = dag_map(subject, cold.library, cold_opt);
    MapResult warm_map = dag_map(subject, warm.lib.library, warm_opt);
    bool identical =
        cold_map.label == warm_map.label &&
        cold_map.optimal_delay == warm_map.optimal_delay &&
        cold_map.netlist.structural_hash() ==
            warm_map.netlist.structural_hash();
    if (!identical) {
      std::fprintf(stderr,
                   "bench_libcache: BIT-IDENTITY VIOLATION on %s — warm "
                   "mapping differs from cold\n",
                   cfg.name);
      ok = false;
    }

    double speedup = cold_seconds / warm_seconds;
    if (cfg.depth == 2 && speedup >= 10.0) depth2_meets_10x = true;
    std::size_t artifact_bytes = serialize_compiled_library(cold).size();
    std::fprintf(stderr,
                 "bench_libcache: %-12s cold %.4fs, warm %.4fs, "
                 "speedup %.1fx, artifact %zu bytes, %zu gates\n",
                 cfg.name, cold_seconds, warm_seconds, speedup,
                 artifact_bytes, cold.library.size());

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"supergate_depth\": %u, "
                  "\"gates\": %zu, \"patterns\": %zu, "
                  "\"artifact_bytes\": %zu, "
                  "\"cold_compile_s\": %.6f, \"warm_load_s\": %.6f, "
                  "\"speedup\": %.2f, \"identical\": %s}",
                  first ? "" : ", ", cfg.name, cfg.depth, cold.library.size(),
                  cold.library.total_patterns(), artifact_bytes, cold_seconds,
                  warm_seconds, speedup, identical ? "true" : "false");
    json += buf;
    first = false;
  }
  std::remove(artifact_path.c_str());
  json += "], \"warm_10x_on_supergates\": ";
  json += depth2_meets_10x ? "true" : "false";
  json += "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_libcache: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << json;
  std::fputs(json.c_str(), stdout);
  if (!depth2_meets_10x)
    std::fprintf(stderr,
                 "bench_libcache: warm load did not reach 10x over cold "
                 "compile on the supergate configuration\n");
  return ok ? 0 : 1;
}
