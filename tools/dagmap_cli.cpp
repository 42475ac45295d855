// dagmap — command-line technology mapper.
//
// Usage:
//   dagmap_cli [options] <circuit.blif>
//
// Options:
//   --library <file.genlib>   gate library (default: built-in lib2-like)
//   --liberty <file.lib>      Liberty-subset gate library instead of
//                             GENLIB (cells/pins/function/capacitance,
//                             linear or NLDM timing collapsed to
//                             block+slope; see io/liberty.hpp)
//   --lib44 <1|2|3>           use a built-in 44-family library instead
//   --mapper <dag|tree>       covering algorithm    (default: dag)
//   --choices[=gens]          decompose with choice classes (Lehman–
//                             Watanabe): every logic node is lowered
//                             through several structural variants and
//                             the mapper picks per class.  `gens` is a
//                             comma list of balanced,chain,andor (or
//                             all, the default).  Works with both
//                             backends; delay is never worse than the
//                             single-structure subject.  (--mapper
//                             choice is the legacy spelling of
//                             --choices with the structural backend.)
//   --backend <structural|cuts> match/candidate engine (default:
//                             structural).  "cuts" maps with the
//                             priority-cut Boolean engine (src/cutmap/):
//                             bounded priority cuts, NPN matching with
//                             explicit inverters, delay never worse than
//                             the structural backend on the same inputs
//   --cut-size <2..4>         cut leaves for --backend=cuts (default 4)
//   --cut-count <n>           priority cuts kept per node (default 8)
//   --rounds <n>              mapping rounds: 1 = pure delay-optimal,
//                             extra rounds recover area under required
//                             times (default 1)
//   --delay-factor <x>        required-time slack factor for the area
//                             rounds, >= 1.0 (default 1.0)
//   --load-rounds <n>         iterated load-aware mapping: measure the
//                             mapping under the linear load model,
//                             re-price the library pin delays with the
//                             measured loads, re-map, keep the best
//                             measured round (never worse than round 0;
//                             works with both backends; default 0 = the
//                             paper's load-oblivious flow)
//   --match <standard|extended>                     (default: standard)
//   --supergates[=depth]      augment the library with generated
//                             supergates before mapping (depth default 2)
//   --threads <n>             labeling worker threads (0 = all cores,
//                             default 1; output is identical either way)
//   --partition[=window]      force the partitioned mapping pipeline
//                             (fanout-free windows, default size 1024);
//                             auto-enabled above 200k subject nodes
//   --no-partition            force the monolithic schedule
//   --profile[=trace.json]    per-phase timing/counter summary; with a
//                             path, also write Chrome trace-event JSON
//                             (chrome://tracing) with per-thread tracks
//   --area-recovery           enable required-time area recovery
//   --buffer <branch>         post-mapping balanced buffer trees (0 = off)
//   --lt-buffer               post-mapping Touati LT-tree buffering
//   --size                    post-mapping gate sizing (x1/x2/x4)
//   --stats                   print duplication/fanout statistics
//   --retime                  min-period retiming for sequential circuits
//   --lut <k>                 FlowMap LUT mapping instead of library gates
//   --out <file.blif|file.v>  write the mapped netlist
//   --verify                  simulation equivalence check (default on)
//   --no-verify               skip verification
//   --save-lib <file.dmlc>    compile the selected library (with
//                             --supergates options) to a cache artifact;
//                             without a circuit, exits after saving
//   --load-lib <file.dmlc>    map with a compiled-library artifact; with
//                             --library also given, the artifact is
//                             validated against the genlib source and a
//                             stale artifact is an error
//   --serve                   persistent batched serve mode: map JSONL
//                             requests from stdin (see
//                             src/libcache/serve.hpp for the protocol)
//
// Prints a one-screen report: subject statistics, delay/area, gate
// histogram, and the equivalence verdict.  Exits nonzero on any failure.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "decomp/choices.hpp"
#include "obs/obs.hpp"
#include "core/stats.hpp"
#include "dagmap/dagmap.hpp"
#include "fanout/buffering.hpp"
#include "fanout/lt_tree.hpp"
#include "fanout/sizing.hpp"
#include "io/number.hpp"
#include "mapnet/write.hpp"
#include "supergate/supergate.hpp"

using namespace dagmap;

namespace {

struct CliOptions {
  std::string circuit_path;
  std::string library_path;
  std::string liberty_path;
  unsigned load_rounds = 0;
  int lib44 = 0;
  std::string mapper = "dag";
  std::string backend = "structural";
  bool choices = false;
  unsigned choice_gens = kChoiceGenAll;
  unsigned cut_size = 4;
  unsigned cut_count = 8;
  unsigned rounds = 1;
  double delay_factor = 1.0;
  std::string match = "standard";
  unsigned supergate_depth = 0;  ///< 0 = off; --supergates defaults to 2
  bool supergates_set = false;   ///< --supergates given explicitly
  unsigned threads = 1;
  int partition = -1;  ///< -1 auto, 0 off, 1 on
  unsigned partition_window = 0;  ///< 0 = the DagMapOptions default
  bool profile = false;
  std::string trace_path;  ///< --profile=trace.json
  bool area_recovery = false;
  unsigned buffer_branch = 0;
  bool lt_buffer = false;
  bool size = false;
  bool stats = false;
  bool retime = false;
  unsigned lut_k = 0;
  std::string out_path;
  bool verify = true;
  std::string save_lib_path;
  std::string load_lib_path;
  bool serve = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: dagmap_cli [--library F.genlib | --liberty F.lib | "
               "--lib44 N] "
               "[--mapper dag|tree] [--choices[=gens]] "
               "[--backend structural|cuts] "
               "[--cut-size N] [--cut-count N] [--rounds N] "
               "[--delay-factor X] [--load-rounds N] "
               "[--match standard|extended] "
               "[--supergates[=D]] "
               "[--threads N] [--partition[=W] | --no-partition] "
               "[--profile[=trace.json]] [--area-recovery] "
               "[--buffer N] [--retime] "
               "[--lut K] [--out F] [--no-verify] "
               "[--save-lib F.dmlc] [--load-lib F.dmlc] [--serve] "
               "circuit.blif\n");
  std::exit(2);
}

// Parses the whole of `v` as a decimal T (from_chars: no sign for
// unsigned types, no whitespace, no trailing junk, no wrap-around); any
// failure is a usage error naming the flag and its value.
template <class T>
T parse_number(const char* flag, const std::string& v) {
  T value{};
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, value);
  if (ec != std::errc() || ptr != end)
    usage((std::string("bad ") + flag + " value `" + v + "`").c_str());
  return value;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage("missing argument value");
      return argv[i];
    };
    // Double-valued flags parse locale-independently (io/number.hpp):
    // std::stod honors LC_NUMERIC and silently truncates "1.5" to 1.0
    // under a comma-decimal locale.
    auto next_double = [&](const char* flag) -> double {
      std::string v = next();
      std::optional<double> d = parse_double_strict(v);
      if (!d)
        usage((std::string("bad ") + flag + " value `" + v + "`").c_str());
      return *d;
    };
    auto next_unsigned = [&](const char* flag) {
      return parse_number<unsigned>(flag, next());
    };
    // The `--flag=value` spelling of an unsigned flag.
    auto suffix_unsigned = [&](const char* flag) {
      return parse_number<unsigned>(flag, a.substr(std::strlen(flag) + 1));
    };
    if (a == "--library") o.library_path = next();
    else if (a == "--liberty") o.liberty_path = next();
    else if (a.rfind("--liberty=", 0) == 0)
      o.liberty_path = a.substr(std::strlen("--liberty="));
    else if (a == "--load-rounds")
      o.load_rounds = next_unsigned("--load-rounds");
    else if (a.rfind("--load-rounds=", 0) == 0)
      o.load_rounds = suffix_unsigned("--load-rounds");
    else if (a == "--lib44") o.lib44 = parse_number<int>("--lib44", next());
    else if (a == "--mapper") o.mapper = next();
    else if (a == "--choices") o.choices = true;
    else if (a.rfind("--choices=", 0) == 0) {
      o.choices = true;
      std::string gens = a.substr(std::strlen("--choices="));
      std::optional<unsigned> g = parse_choice_gens(gens);
      if (!g)
        usage(("bad --choices generator list `" + gens +
               "` (want balanced,chain,andor,all)")
                  .c_str());
      o.choice_gens = *g;
    }
    else if (a == "--backend") o.backend = next();
    else if (a.rfind("--backend=", 0) == 0)
      o.backend = a.substr(std::strlen("--backend="));
    else if (a == "--cut-size") o.cut_size = next_unsigned("--cut-size");
    else if (a == "--cut-count") o.cut_count = next_unsigned("--cut-count");
    else if (a == "--rounds") o.rounds = next_unsigned("--rounds");
    else if (a == "--delay-factor") o.delay_factor = next_double("--delay-factor");
    else if (a == "--match") o.match = next();
    else if (a == "--supergates") o.supergate_depth = 2, o.supergates_set = true;
    else if (a.rfind("--supergates=", 0) == 0) {
      o.supergate_depth = suffix_unsigned("--supergates");
      o.supergates_set = true;
    }
    else if (a == "--threads") o.threads = next_unsigned("--threads");
    else if (a == "--partition") o.partition = 1;
    else if (a.rfind("--partition=", 0) == 0) {
      o.partition = 1;
      o.partition_window = suffix_unsigned("--partition");
      if (o.partition_window == 0) usage("zero --partition= window");
    }
    else if (a == "--no-partition") o.partition = 0;
    else if (a == "--profile") o.profile = true;
    else if (a.rfind("--profile=", 0) == 0) {
      o.profile = true;
      o.trace_path = a.substr(std::strlen("--profile="));
      if (o.trace_path.empty()) usage("empty --profile= path");
    }
    else if (a == "--area-recovery") o.area_recovery = true;
    else if (a == "--buffer") o.buffer_branch = next_unsigned("--buffer");
    else if (a == "--lt-buffer") o.lt_buffer = true;
    else if (a == "--size") o.size = true;
    else if (a == "--stats") o.stats = true;
    else if (a == "--retime") o.retime = true;
    else if (a == "--lut") o.lut_k = next_unsigned("--lut");
    else if (a == "--out") o.out_path = next();
    else if (a == "--verify") o.verify = true;
    else if (a == "--no-verify") o.verify = false;
    else if (a == "--save-lib") o.save_lib_path = next();
    else if (a == "--load-lib") o.load_lib_path = next();
    else if (a == "--serve") o.serve = true;
    else if (a == "--help" || a == "-h") usage();
    else if (!a.empty() && a[0] == '-') usage(("unknown option " + a).c_str());
    else if (o.circuit_path.empty()) o.circuit_path = a;
    else usage("multiple circuit files");
  }
  if (o.backend != "structural" && o.backend != "cuts")
    usage("bad --backend value (want structural or cuts)");
  if (o.cut_size < 2 || o.cut_size > 4) usage("bad --cut-size (want 2..4)");
  if (o.cut_count < 1) usage("bad --cut-count (want >= 1)");
  if (o.rounds < 1) usage("bad --rounds (want >= 1)");
  if (o.delay_factor < 1.0) usage("bad --delay-factor (want >= 1.0)");
  if (o.lib44 < 0 || o.lib44 > 3) usage("bad --lib44 (want 1..3)");
  if (!o.liberty_path.empty() && (!o.library_path.empty() || o.lib44 > 0))
    usage("--liberty excludes --library and --lib44");
  if (o.mapper == "choice") {
    // Legacy spelling: the choice flow is now the default mapper with
    // the choice-annotated subject.
    o.mapper = "dag";
    o.choices = true;
  }
  if (o.load_rounds > 0 && o.mapper == "tree")
    usage("--load-rounds applies to the dag/cuts mapping flows");
  if (o.backend == "cuts" && o.mapper != "dag")
    usage("--backend=cuts applies to the default --mapper dag flow");
  if (o.choices && o.mapper != "dag")
    usage("--choices applies to the dag/cuts mapping flows");
  if (o.choices && o.lut_k > 0)
    usage("--choices does not apply to the LUT flow");
  if (o.circuit_path.empty() && o.save_lib_path.empty() && !o.serve)
    usage("no circuit file");
  if (o.serve && !o.circuit_path.empty())
    usage("--serve takes circuits on stdin, not an argument");
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  CliOptions opt = parse_args(argc, argv);

  // ---- serve mode ---------------------------------------------------------
  if (opt.serve) {
    ServeOptions sopt;
    sopt.num_threads = opt.threads;
    // Either source works: the registry sniffs Liberty vs GENLIB.
    sopt.default_library = !opt.library_path.empty()
                               ? opt.library_path
                               : opt.liberty_path;  // empty = per-request
    sopt.default_compile.supergate_depth = opt.supergate_depth;
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

  // ---- compiled-library cache (--save-lib / --load-lib) -------------------
  // The untouched default path below rebuilds the library from source on
  // every run; these flags route through libcache/ instead.
  std::string lib_name =
      !opt.library_path.empty() ? opt.library_path
      : !opt.liberty_path.empty() ? opt.liberty_path
      : opt.lib44 > 0 ? "44-" + std::to_string(opt.lib44) + "-like"
                      : "lib2-like";
  auto genlib_source_text = [&]() -> std::string {
    // Raw file bytes for either format: compile_library and the
    // registry sniff Liberty vs GENLIB from the text itself, and the
    // artifact content hash runs over these bytes.
    std::string path =
        !opt.library_path.empty() ? opt.library_path : opt.liberty_path;
    if (!path.empty()) {
      std::ifstream in(path, std::ios::binary);
      if (!in) usage("cannot read library file");
      std::ostringstream ss;
      ss << in.rdbuf();
      return ss.str();
    }
    if (opt.lib44 > 0) return write_genlib(make_44_genlib(opt.lib44));
    return lib2_genlib_text();
  };
  LibCompileOptions copt;
  copt.supergate_depth = opt.supergate_depth;
  copt.num_threads = opt.threads;

  std::optional<CompiledLibrary> clib;
  if (!opt.load_lib_path.empty()) {
    LibraryLoadResult loaded = load_compiled_library_file(opt.load_lib_path);
    if (!loaded.ok) {
      std::fprintf(stderr, "dagmap_cli: %s: %s\n", opt.load_lib_path.c_str(),
                   loaded.error.c_str());
      return 1;
    }
    if (!opt.library_path.empty() || !opt.liberty_path.empty() ||
        opt.lib44 > 0) {
      // Without an explicit --supergates the artifact defines the
      // generation options, so validation only asks whether the genlib
      // source still matches; with one, the options must match too.
      const LibCompileOptions& want =
          opt.supergates_set ? copt : loaded.lib.options;
      std::string why;
      if (!validate_compiled_library(loaded.lib, genlib_source_text(), want,
                                     &why)) {
        std::fprintf(stderr,
                     "dagmap_cli: stale artifact %s: %s "
                     "(regenerate with --save-lib)\n",
                     opt.load_lib_path.c_str(), why.c_str());
        return 1;
      }
    }
    std::printf("loaded compiled library %s: %zu gates\n",
                loaded.lib.library.name().c_str(), loaded.lib.library.size());
    clib = std::move(loaded.lib);
  } else if (!opt.save_lib_path.empty()) {
    clib = compile_library(genlib_source_text(), copt,
                           opt.supergate_depth > 0 ? lib_name + "+supergates"
                                                   : lib_name);
  }
  if (clib && !opt.save_lib_path.empty()) {
    save_compiled_library_file(*clib, opt.save_lib_path);
    std::printf("wrote compiled library %s: %zu gates, %zu patterns\n",
                opt.save_lib_path.c_str(), clib->library.size(),
                clib->library.total_patterns());
    if (opt.circuit_path.empty()) return 0;
  }

  // One profiling session spans the whole run (read -> decompose ->
  // supergates -> map -> verify -> write); dag_map joins it instead of
  // opening its own.
  if (opt.profile) obs::start();
  auto finish_profile = [&opt]() {
    if (!opt.profile) return;
    obs::stop();
    obs::ProfileData prof = obs::collect();
    std::fputs(prof.summary().c_str(), stdout);
    if (!opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      if (!out) {
        std::fprintf(stderr, "dagmap_cli: cannot write %s\n",
                     opt.trace_path.c_str());
        std::exit(1);
      }
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
    if (opt.verify &&
        !check_equivalence(subject, r.netlist).equivalent) {
      std::fprintf(stderr, "VERIFICATION FAILED\n");
      return 1;
    }
    if (!opt.out_path.empty()) write_blif_file(r.netlist, opt.out_path);
    finish_profile();
    return 0;
  }

  // ---- library-based flow -------------------------------------------------
  // One library.build phase reads the gate list (library.parse) and
  // builds the GateLibrary from it (library.tt / .isop / .patterns, or
  // supergate.generate with --supergates); a precompiled library skips
  // it.  Gathering the gate list first lets --supergates augment any of
  // the three sources.
  GateLibrary lib;
  {
    obs::Scope build_scope(clib ? nullptr : "library.build");
    std::vector<GenlibGate> base_gates = [&] {
      if (clib) return std::vector<GenlibGate>{};  // came precompiled
      obs::Scope scope("library.parse");
      if (!opt.liberty_path.empty()) {
        LibertyLibrary ll = read_liberty_file(opt.liberty_path);
        if (ll.cells_skipped)
          std::printf("liberty %s: %zu combinational cells (%zu skipped)\n",
                      ll.name.c_str(), ll.gates.size(), ll.cells_skipped);
        return std::move(ll.gates);
      }
      return !opt.library_path.empty() ? read_genlib_file(opt.library_path)
           : opt.lib44 > 0             ? make_44_genlib(opt.lib44)
                                       : parse_genlib(lib2_genlib_text());
    }();
    lib = [&]() -> GateLibrary {
      if (clib) return std::move(clib->library);
      if (opt.supergate_depth == 0)
        return GateLibrary::from_genlib(base_gates, lib_name);
      SupergateOptions sgopt;
      sgopt.max_depth = opt.supergate_depth;
      sgopt.num_threads = opt.threads;
      SupergateLibrary sg =
          generate_supergates(base_gates, sgopt, lib_name + "+supergates");
      std::printf(
          "supergates: depth %u, %zu kept of %zu candidates "
          "(%zu classes, %.2fs)\n",
          opt.supergate_depth, sg.stats.kept, sg.stats.candidates,
          sg.stats.classes_seen, sg.stats.generation_seconds);
      return std::move(sg.library);
    }();
  }
  std::printf("library %s: %zu gates\n", lib.name().c_str(), lib.size());
  if (!lib.is_complete_for_mapping()) usage("library lacks INV or NAND2");

  DagMapOptions mopt;
  mopt.area_recovery = opt.area_recovery;
  mopt.num_threads = opt.threads;
  mopt.profile = opt.profile;
  if (opt.partition >= 0)
    mopt.partition_mode =
        opt.partition ? PartitionMode::On : PartitionMode::Off;
  if (opt.partition_window > 0) mopt.partition_window = opt.partition_window;
  if (opt.match == "extended") mopt.match_class = MatchClass::Extended;
  else if (opt.match != "standard") usage("bad --match value");
  if (clib) mopt.pattern_index = &clib->index;
  mopt.load_rounds = opt.load_rounds;

  MapResult result;
  Network subject;
  // Kept alive through the mapping call: DagMapOptions::choices /
  // CutMapOptions::choices borrow `choice->classes`.
  std::optional<ChoiceDecomposition> choice;
  if (opt.choices) {
    obs::Scope scope("decompose.choices");
    ChoiceOptions chopt;
    chopt.gens = opt.choice_gens;
    choice = tech_decompose_choices(circuit, chopt);
    choice->validate();
    subject = choice->subject;  // copy preserves node ids, classes stay valid
    mopt.choices = &choice->classes;
  } else {
    subject = tech_decompose(circuit);
  }
  if (opt.mapper == "dag" && opt.backend == "cuts") {
    CutMapOptions copt;
    copt.cut_size = opt.cut_size;
    copt.cut_count = opt.cut_count;
    copt.rounds = opt.rounds;
    copt.delay_factor = opt.delay_factor;
    copt.match_class = mopt.match_class;
    copt.num_threads = opt.threads;
    copt.profile = opt.profile;
    copt.partition_mode = mopt.partition_mode;
    copt.partition_window = mopt.partition_window;
    copt.pattern_index = mopt.pattern_index;
    copt.load_rounds = opt.load_rounds;
    copt.choices = mopt.choices;
    result = cut_map(subject, lib, copt);
  } else if (opt.mapper == "dag") result = dag_map(subject, lib, mopt);
  else if (opt.mapper == "tree") result = tree_map(subject, lib);
  else usage("bad --mapper value");
  std::printf("subject graph: %zu internal nodes\n", subject.num_internal());
  if (opt.choices)
    std::printf(
        "choices: %zu classes, %zu extra variants, %zu folds won\n",
        result.choice_classes, result.choice_variants, result.choice_wins);
  if (result.partitioned)
    std::printf(
        "partitioned: %zu partitions in %zu waves, %zu boundary edges, "
        "largest %zu nodes\n",
        result.num_partitions, result.partition_waves,
        result.partition_boundary_edges, result.partition_max_nodes);
  std::printf("%s mapping: delay %.3f, area %.1f, %zu gates (%.2fs)\n",
              opt.backend == "cuts" ? "cuts" : opt.mapper.c_str(),
              result.optimal_delay,
              result.netlist.total_area(), result.netlist.num_gates(),
              result.cpu_seconds);
  if (opt.load_rounds > 0)
    std::printf(
        "load rounds: %zu measured, best round %u, loaded delay "
        "%.3f -> %.3f\n",
        result.load_round_delays.size(), result.load_round_selected,
        result.loaded_delay_round0, result.loaded_delay);
  if (opt.stats) {
    MappingStats st = mapping_stats(subject, result.netlist);
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
    // Sized variants of the source library (x1/x2/x4).
    std::string text = !opt.library_path.empty()
                           ? write_genlib(read_genlib_file(opt.library_path))
                       : !opt.liberty_path.empty()
                           ? write_genlib(
                                 read_liberty_file(opt.liberty_path).gates)
                       : opt.lib44 > 0 ? write_genlib(make_44_genlib(opt.lib44))
                                       : lib2_genlib_text();
    static GateLibrary sized =
        make_sized_library(text, {1, 2, 4}, lib.name() + "-sized");
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

  if (opt.verify && retimed) {
    // Retiming moves state across logic; combinational equivalence no
    // longer applies (sequential equivalence is out of scope here).
    std::printf("verification: skipped (netlist was retimed)\n");
  } else if (opt.verify) {
    obs::Scope scope("verify");
    auto eq = check_equivalence(circuit, final_net.to_network());
    std::printf("verification: %s\n", eq.equivalent ? "PASS" : "FAIL");
    if (!eq.equivalent) return 1;
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
  finish_profile();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_cli: %s\n", e.what());
  return 1;
}
