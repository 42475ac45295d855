// dagmap_cli — command-line technology mapper.  Usage, flags and the
// report it prints: tools/README.md.  The mapping flags are the rows of
// the request field table (libcache/request.hpp), and the mapping runs
// through `run_request`, as a serve request does.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "core/parallel.hpp"
#include "core/stats.hpp"
#include "dagmap/dagmap.hpp"
#include "fanout/buffering.hpp"
#include "fanout/lt_tree.hpp"
#include "fanout/sizing.hpp"
#include "libcache/request.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"

using namespace dagmap;

namespace {

struct CliOptions {
  std::string circuit_path;
  std::string library_path;
  std::string liberty_path;
  int lib44 = 0;
  std::string mapper = "dag";
  MapRequest req;  ///< the request fields
  unsigned threads = 1;
  std::string trace_path;  ///< --profile=trace.json
  unsigned buffer_branch = 0;
  bool lt_buffer = false;
  bool size = false;
  bool stats = false;
  bool retime = false;
  unsigned lut_k = 0;
  std::string out_path;
  std::string save_lib_path;
  std::string load_lib_path;
  bool serve = false;
};

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::string request_flags;
  for (const RequestField& f : request_fields())
    request_flags += " [" + cli_spelling(f) + "]";
  std::fprintf(stderr,
               "usage: dagmap_cli [--library F.genlib | --liberty F.lib | "
               "--lib44 N] [--mapper dag|tree]%s [--no-verify] "
               "[--threads N] [--profile=trace.json] [--buffer N] "
               "[--lt-buffer] [--size] [--stats] [--retime] [--lut K] "
               "[--out F] [--save-lib F.dmlc] [--load-lib F.dmlc] [--serve] "
               "circuit.blif\n",
               request_flags.c_str());
  std::exit(2);
}

// Parses the whole of `v` as a decimal T no larger than `max`
// (from_chars: no sign for unsigned types, no whitespace, no trailing
// junk, no wrap-around); any failure is a usage error naming the flag
// and its value.
template <class T>
T parse_number(const char* flag, const std::string& v,
               T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max)
    usage(std::string("bad ") + flag + " value `" + v + "`");
  return value;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  o.req.verify = true;  // the CLI verifies by default, serve does not
  const MapRequest defaults = o.req;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage("missing argument value");
      return argv[i];
    };
    std::string error;
    if (parse_request_flag(argc, argv, i, defaults, o.req, error)) {
      if (!error.empty()) usage(error);
    }
    else if (a == "--library") o.library_path = next();
    else if (a == "--liberty") o.liberty_path = next();
    else if (a.rfind("--liberty=", 0) == 0)
      o.liberty_path = a.substr(std::strlen("--liberty="));
    else if (a == "--lib44") o.lib44 = parse_number<int>("--lib44", next());
    else if (a == "--mapper") o.mapper = next();
    else if (a == "--threads")
      o.threads = parse_number<unsigned>("--threads", next(), kMaxThreads);
    else if (a.rfind("--profile=", 0) == 0) {
      o.trace_path = a.substr(std::strlen("--profile="));
      if (o.trace_path.empty()) usage("empty --profile= path");
      o.req.map.profile = true;
    }
    else if (a == "--buffer")
      o.buffer_branch = parse_number<unsigned>("--buffer", next());
    else if (a == "--lt-buffer") o.lt_buffer = true;
    else if (a == "--size") o.size = true;
    else if (a == "--stats") o.stats = true;
    else if (a == "--retime") o.retime = true;
    else if (a == "--lut") o.lut_k = parse_number<unsigned>("--lut", next());
    else if (a == "--out") o.out_path = next();
    else if (a == "--save-lib") o.save_lib_path = next();
    else if (a == "--load-lib") o.load_lib_path = next();
    else if (a == "--serve") o.serve = true;
    else if (a == "--help" || a == "-h") usage();
    else if (!a.empty() && a[0] == '-') usage("unknown option " + a);
    else if (o.circuit_path.empty()) o.circuit_path = a;
    else usage("multiple circuit files");
  }
  o.req.map.num_threads = o.threads;
  if (std::string why = validate_request(o.req); !why.empty()) usage(why);
  if (o.lib44 < 0 || o.lib44 > 3) usage("bad --lib44 (want 1..3)");
  if (!o.liberty_path.empty() && (!o.library_path.empty() || o.lib44 > 0))
    usage("--liberty excludes --library and --lib44");
  if (o.mapper != "dag" && o.mapper != "tree") usage("bad --mapper value");
  // The mapping fields act only in the dag/cuts library flow: the tree
  // and LUT flows would ignore them, and serve mode reads them from each
  // request.  Threads, profiling, verification and the library's
  // supergate depth apply to every flow.
  MapRequest knobs = o.req;
  knobs.map.num_threads = 1;
  knobs.map.profile = false;
  knobs.verify = defaults.verify;
  knobs.supergates = 0;
  if ((o.mapper != "dag" || o.lut_k > 0 || o.serve) && knobs != defaults)
    usage("mapping flags (--backend, --match, --cut-size, --cut-count, "
          "--rounds, --delay-factor, --area-recovery, --load-rounds, "
          "--choices) apply to the dag/cuts mapping flow");
  if (o.circuit_path.empty() && o.save_lib_path.empty() && !o.serve)
    usage("no circuit file");
  if (o.serve && !o.circuit_path.empty())
    usage("--serve takes circuits on stdin, not an argument");
  return o;
}

/// The selected library's name and source: the --library or --liberty
/// path and the file bytes (compile_library tells the formats apart,
/// and the artifact content hash runs over these bytes), else a
/// built-in 44-N or lib2 library and its GENLIB text.
std::pair<std::string, std::string> library_source(const CliOptions& o) {
  std::string path = o.library_path + o.liberty_path;  // at most one is set
  if (path.empty() && o.lib44 > 0)
    return {"44-" + std::to_string(o.lib44) + "-like",
            write_genlib(make_44_genlib(o.lib44))};
  if (path.empty()) return {"lib2-like", lib2_genlib_text()};
  std::optional<std::string> text = libcache::read_file(path);
  if (!text) throw std::runtime_error("cannot read library file " + path);
  return {path, *text};
}

}  // namespace

int main(int argc, char** argv) try {
  CliOptions opt = parse_args(argc, argv);

  // ---- serve mode ---------------------------------------------------------
  if (opt.serve) {
    ServeOptions sopt;
    sopt.num_threads = opt.threads;
    // Either source works: the registry sniffs Liberty vs GENLIB.
    // At most one is set; empty = per-request libraries.
    sopt.default_library = opt.library_path + opt.liberty_path;
    sopt.default_compile.supergate_depth = opt.req.supergates;
    sopt.default_compile.num_threads = opt.threads;
    ServeSummary s = run_serve(std::cin, std::cout, sopt);
    std::fprintf(stderr,
                 "serve: %llu request(s), %llu error(s), %llu batch(es); "
                 "registry: %llu hit(s), %llu compile(s), %llu artifact "
                 "load(s), %llu artifact reject(s)\n",
                 (unsigned long long)s.requests, (unsigned long long)s.errors,
                 (unsigned long long)s.batches,
                 (unsigned long long)s.registry.hits,
                 (unsigned long long)s.registry.compiles,
                 (unsigned long long)s.registry.artifact_loads,
                 (unsigned long long)s.registry.artifact_rejects);
    return 0;
  }

  // ---- the library: compiled from source, or a --load-lib artifact -------
  LibCompileOptions copt;
  copt.supergate_depth = opt.req.supergates;
  copt.num_threads = opt.threads;
  auto compile = [&] {
    obs::Scope scope("library.build");
    auto [name, text] = library_source(opt);
    CompiledLibrary c = compile_library(
        text, copt, copt.supergate_depth > 0 ? name + "+supergates" : name);
    if (c.cells_skipped)
      std::printf("liberty: %zu cells skipped (sequential or unsupported)\n",
                  c.cells_skipped);
    if (copt.supergate_depth > 0)
      std::printf(
          "supergates: depth %u, %zu kept of %zu candidates "
          "(%zu classes, %.2fs)\n",
          copt.supergate_depth, c.supergate_stats.kept,
          c.supergate_stats.candidates, c.supergate_stats.classes_seen,
          c.supergate_stats.generation_seconds);
    return c;
  };

  std::optional<CompiledLibrary> clib;
  if (!opt.load_lib_path.empty()) {
    LibraryLoadResult loaded = load_compiled_library_file(opt.load_lib_path);
    if (!loaded.ok)
      throw std::runtime_error(opt.load_lib_path + ": " + loaded.error);
    if (!opt.library_path.empty() || !opt.liberty_path.empty() ||
        opt.lib44 > 0) {
      // Without --supergates the artifact defines the generation
      // options, so validation only asks whether the source still
      // matches; with it, the options must match too.
      const LibCompileOptions& want =
          opt.req.supergates > 0 ? copt : loaded.lib.options;
      std::string why;
      if (!validate_compiled_library(loaded.lib, library_source(opt).second,
                                     want, &why))
        throw std::runtime_error("stale artifact " + opt.load_lib_path +
                                 ": " + why + " (regenerate with --save-lib)");
    }
    std::printf("loaded compiled library %s: %zu gates\n",
                loaded.lib.library.name().c_str(), loaded.lib.library.size());
    clib = std::move(loaded.lib);
  } else if (!opt.save_lib_path.empty()) {
    clib = compile();
  }
  if (!opt.save_lib_path.empty()) {
    save_compiled_library_file(*clib, opt.save_lib_path);
    std::printf("wrote compiled library %s: %zu gates, %zu patterns\n",
                opt.save_lib_path.c_str(), clib->library.size(),
                clib->library.total_patterns());
    if (opt.circuit_path.empty()) return 0;
  }

  // One profiling session spans the whole run (read -> library.build ->
  // decompose -> map -> verify -> write -> release); map joins it
  // instead of opening its own.
  if (opt.req.map.profile) obs::start();
  auto finish_profile = [&opt]() {
    if (!opt.req.map.profile) return;
    obs::stop();
    obs::ProfileData prof = obs::collect();
    std::fputs(prof.summary().c_str(), stdout);
    if (!opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      if (!out) throw std::runtime_error("cannot write " + opt.trace_path);
      out << prof.chrome_trace_json();
      std::printf("wrote trace %s\n", opt.trace_path.c_str());
    }
  };

  Network circuit = [&] {
    obs::Scope scope("read");
    return read_blif_file(opt.circuit_path);
  }();
  std::printf("circuit %s: %zu PIs, %zu POs, %zu latches, %zu nodes\n",
              circuit.name().c_str(), circuit.num_inputs(),
              circuit.num_outputs(), circuit.num_latches(), circuit.size());

  // ---- LUT flow ---------------------------------------------------------
  if (opt.lut_k > 0) {
    Network subject = tech_decompose(circuit);
    LutMapResult r = flowmap(subject, {.k = opt.lut_k});
    std::printf("flowmap k=%u: depth %u, %zu LUTs\n", opt.lut_k, r.depth,
                r.num_luts);
    if (opt.req.verify &&
        !check_equivalence(subject, r.netlist).equivalent) {
      std::fprintf(stderr, "VERIFICATION FAILED\n");
      return 1;
    }
    if (!opt.out_path.empty()) write_blif_file(r.netlist, opt.out_path);
    finish_profile();
    return 0;
  }

  // ---- library-based flow -------------------------------------------------
  if (!clib) clib = compile();
  const GateLibrary& lib = clib->library;
  std::printf("library %s: %zu gates\n", lib.name().c_str(), lib.size());
  if (!lib.is_complete_for_mapping()) usage("library lacks INV or NAND2");

  // The request verifies the mapped netlist unless a post-mapping flow
  // rewrites it; then the final netlist is checked below instead.
  bool rewrites =
      opt.buffer_branch >= 2 || opt.lt_buffer || opt.size || opt.retime;
  MapRequest req = opt.req;
  req.verify = opt.req.verify && !rewrites;
  RequestResult r;
  if (opt.mapper == "dag") {
    r = run_request(circuit, *clib, req);
  } else {
    r.subject = tech_decompose(circuit);
    r.result = tree_map(r.subject, lib);
  }
  MapResult& result = r.result;
  std::printf("subject graph: %zu internal nodes\n", r.subject.num_internal());
  if (req.choices)
    std::printf(
        "choices: %zu classes, %zu extra variants, %zu folds won\n",
        result.choice_classes, result.choice_variants, result.choice_wins);
  std::printf("%s mapping: delay %.3f, area %.1f, %zu gates (%.2fs)\n",
              req.map.source == CandidateSource::Cuts ? "cuts"
                                                      : opt.mapper.c_str(),
              result.optimal_delay,
              result.netlist.total_area(), result.netlist.num_gates(),
              result.cpu_seconds);
  if (req.map.load_rounds > 0)
    std::printf(
        "load rounds: %zu measured, best round %u, loaded delay "
        "%.3f -> %.3f\n",
        result.load_round_delays.size(), result.load_round_selected,
        result.loaded_delay_round0, result.loaded_delay);
  if (opt.stats) {
    MappingStats st = mapping_stats(r.subject, result.netlist);
    std::printf("stats: %zu/%zu covered subject nodes duplicated; "
                "multi-fanout %zu -> %zu; avg gate fan-in %.2f\n",
                result.duplicated_nodes, result.covered_distinct,
                st.subject_multi_fanout, st.mapped_multi_fanout,
                st.average_gate_inputs());
  }

  MappedNetlist final_net = std::move(result.netlist);
  if (opt.buffer_branch >= 2) {
    BufferOptions bopt;
    bopt.max_branch = opt.buffer_branch;
    BufferResult br = buffer_fanouts(final_net, lib, bopt);
    std::printf("buffering: %zu buffers, loaded delay %.3f -> %.3f\n",
                br.buffers_inserted, br.delay_before, br.delay_after);
    final_net = std::move(br.netlist);
  }
  if (opt.lt_buffer) {
    LtTreeResult lr = buffer_fanouts_lt_tree(final_net, lib);
    std::printf("lt-buffering: %zu buffers, loaded delay %.3f -> %.3f\n",
                lr.buffers_inserted, lr.delay_before, lr.delay_after);
    final_net = std::move(lr.netlist);
  }
  bool retimed = false;
  if (opt.size) {
    // Sized variants (x1/x2/x4) of the source library.
    static GateLibrary sized = make_sized_library(
        library_source(opt).second, {1, 2, 4}, lib.name() + "-sized");
    SizingResult sr = size_gates(final_net, sized);
    std::printf("sizing: %zu resized, loaded delay %.3f -> %.3f\n",
                sr.resized, sr.delay_before, sr.delay_after);
    final_net = std::move(sr.netlist);
  }
  if (opt.retime && final_net.latches().size() > 0) {
    double period = 0;
    final_net = retime_min_period(final_net, &period);
    std::printf("retiming: clock period %.3f\n", period);
    retimed = true;
  }

  if (opt.req.verify && retimed) {
    // Retiming moves state across logic; combinational equivalence no
    // longer applies (sequential equivalence is out of scope here).
    std::printf("verification: skipped (netlist was retimed)\n");
  } else if (opt.req.verify) {
    if (!r.equivalent) {
      obs::Scope scope("verify");
      r.equivalent =
          check_equivalence(circuit, final_net.to_network()).equivalent;
    }
    std::printf("verification: %s\n", *r.equivalent ? "PASS" : "FAIL");
    if (!*r.equivalent) return 1;
  }
  if (!opt.out_path.empty()) {
    obs::Scope scope("write");
    write_mapped_file(final_net, opt.out_path);
    std::printf("wrote %s\n", opt.out_path.c_str());
  }
  std::printf("gate histogram:");
  int shown = 0;
  for (auto& [g, n] : final_net.gate_histogram()) {
    if (shown++ == 8) {
      std::printf(" ...");
      break;
    }
    std::printf(" %s:%zu", g.c_str(), n);
  }
  std::printf("\n");
  {
    // Freeing the networks is part of the job (about 2 % of a 1M-node
    // run), so it happens inside the session, not after it.
    obs::Scope scope("release");
    circuit = Network();
    r = RequestResult();
    final_net = MappedNetlist();
  }
  finish_profile();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_cli: %s\n", e.what());
  return 1;
}
