// dagmap_fuzz — metamorphic fuzzer for the mapping pipeline.
//
//   $ dagmap_fuzz --seeds 1000                      # sweep seeds 1..1000
//   $ dagmap_fuzz --seed 7 --shrink --out repro/    # minimize a failure
//   $ dagmap_fuzz --replay repro/repro.blif repro/repro.genlib
//
// Each seed deterministically builds a random (circuit, GENLIB library)
// pair, runs decompose -> match -> label -> cover, and asserts the
// invariant suite (equivalence, oracle-optimality, tree >= DAG,
// Extended <= Standard, thread determinism, supergate dominance — the
// supergate-augmented library never maps slower than the base library —
// the backend cross-check: the priority-cut engine never maps slower
// than the structural mapper — the load-rounds bound: the iterated
// load-aware flow never measures worse than the load-oblivious round 0
// — and choice dominance: mapping the choice-annotated subject is
// never worse than mapping it with choices off, on both backends;
// see check/fuzz_pipeline.hpp).
// On a violation with --shrink, a delta-debugging pass minimizes the
// instance and writes repro.blif + repro.genlib plus the replay command.
// --inject-bug corrupts the labels on purpose (test hook), so the
// detection and shrinking machinery can be exercised on a correct
// mapper.  Exit code: 0 clean, 1 violation found, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "dagmap/dagmap.hpp"
#include "libcache/binio.hpp"

using namespace dagmap;

namespace {

struct Args {
  std::uint64_t seed_base = 1;
  std::uint64_t num_seeds = 500;
  bool shrink = false;
  bool inject_bug = false;
  bool lib_cache_only = false;
  bool backend_cross_only = false;
  bool load_rounds_only = false;
  bool choices_only = false;
  std::string out_dir = ".";
  std::string replay_blif, replay_genlib;
  unsigned min_nodes = 8;
  unsigned max_nodes = 40;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: dagmap_fuzz [--seeds N] [--seed S] [--min-nodes N] "
      "[--max-nodes N] [--shrink]\n"
      "                   [--inject-bug] [--lib-cache] [--backend-cross] "
      "[--load-rounds] [--choices]\n"
      "                   [--out DIR]\n"
      "       dagmap_fuzz --replay circuit.blif library.genlib\n");
  return 2;
}

FuzzOptions fuzz_options(const Args& args) {
  FuzzOptions opt;
  opt.min_nodes = args.min_nodes;
  opt.max_nodes = args.max_nodes;
  opt.inject_label_bug = args.inject_bug;
  // --lib-cache: restrict to the compiled-library round-trip/corruption
  // invariant (plus the equivalence baseline it compares against is not
  // needed — std_map is always computed).
  if (args.lib_cache_only) opt.invariants = kFuzzLibCache;
  // --backend-cross: restrict to the cut-backend-vs-structural delay
  // bound and equivalence (invariant #9); --inject-bug then corrupts the
  // cut-backend delay instead of the labels so the detection + shrink
  // path stays exercisable.
  if (args.backend_cross_only) {
    opt.invariants = kFuzzBackendCross;
    opt.inject_backend_bug = args.inject_bug;
    opt.inject_label_bug = false;
  }
  // --load-rounds: restrict to the load-aware keep-best bound and
  // equivalence (invariant #10); --inject-bug then corrupts the measured
  // load-aware delay instead of the labels.
  if (args.load_rounds_only) {
    opt.invariants = kFuzzLoadRounds;
    opt.inject_load_bug = args.inject_bug;
    opt.inject_label_bug = false;
  }
  // --choices: restrict to the choice-dominance bound and equivalence
  // (invariant #11); --inject-bug then corrupts the choice-mapped delay
  // instead of the labels.
  if (args.choices_only) {
    opt.invariants = kFuzzChoiceDominance;
    opt.inject_choice_bug = args.inject_bug;
    opt.inject_label_bug = false;
  }
  return opt;
}

// Invariant suite on an explicit (circuit, library text) pair — the
// shrinker's predicate and the --replay path.  Any exception from the
// pipeline counts as a failure (crash-is-failure, standard for delta
// debugging).
bool instance_fails(const Network& circuit, const std::string& library_text,
                    const FuzzOptions& opt, std::string* why = nullptr) {
  try {
    FuzzInstance inst{0, circuit, library_text,
                      GateLibrary::from_genlib_text(library_text, "replay")};
    FuzzReport r = run_fuzz_instance(inst, opt);
    if (!r.ok && why) *why = r.to_string();
    return !r.ok;
  } catch (const std::exception& e) {
    if (why) *why = std::string("exception: ") + e.what();
    return true;
  }
}

void write_repro(const Args& args, const Network& circuit,
                 const std::string& library_text) {
  std::string blif_path = args.out_dir + "/repro.blif";
  std::string lib_path = args.out_dir + "/repro.genlib";
  write_blif_file(circuit, blif_path);
  std::ofstream(lib_path) << library_text;
  std::printf("repro written: %s %s\n", blif_path.c_str(), lib_path.c_str());
  std::printf("replay with:   dagmap_fuzz%s%s%s%s --replay %s %s\n",
              args.inject_bug ? " --inject-bug" : "",
              args.backend_cross_only ? " --backend-cross" : "",
              args.load_rounds_only ? " --load-rounds" : "",
              args.choices_only ? " --choices" : "",
              blif_path.c_str(), lib_path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (++i >= argc) std::exit(usage());
      return argv[i];
    };
    auto count = [&] { return std::strtoull(value(), nullptr, 10); };
    if (a == "--seeds") {
      args.num_seeds = count();
    } else if (a == "--seed") {
      args.seed_base = count();
      args.num_seeds = 1;
    } else if (a == "--min-nodes") {
      args.min_nodes = static_cast<unsigned>(count());
    } else if (a == "--max-nodes") {
      args.max_nodes = static_cast<unsigned>(count());
    } else if (a == "--out") {
      args.out_dir = value();
    } else if (a == "--shrink") {
      args.shrink = true;
    } else if (a == "--inject-bug") {
      args.inject_bug = true;
    } else if (a == "--lib-cache") {
      args.lib_cache_only = true;
    } else if (a == "--backend-cross") {
      args.backend_cross_only = true;
    } else if (a == "--load-rounds") {
      args.load_rounds_only = true;
    } else if (a == "--choices") {
      args.choices_only = true;
    } else if (a == "--replay") {
      args.replay_blif = value();
      args.replay_genlib = value();
    } else {
      return usage();
    }
  }

  FuzzOptions opt = fuzz_options(args);

  if (!args.replay_blif.empty()) {
    Network circuit = read_blif_file(args.replay_blif);
    std::optional<std::string> text = libcache::read_file(args.replay_genlib);
    if (!text) throw std::runtime_error("cannot read " + args.replay_genlib);
    std::string why;
    if (instance_fails(circuit, *text, opt, &why)) {
      std::printf("FAIL\n%s\n", why.c_str());
      return 1;
    }
    std::printf("OK: all invariants hold\n");
    return 0;
  }

  std::uint64_t checked = 0, oracle_checked = 0;
  for (std::uint64_t s = args.seed_base; s < args.seed_base + args.num_seeds;
       ++s) {
    FuzzInstance inst = make_fuzz_instance(s, opt);
    FuzzReport r = run_fuzz_instance(inst, opt);
    ++checked;
    if (r.oracle_checked) ++oracle_checked;
    if (r.ok) continue;

    std::printf("VIOLATION at %s\n", r.to_string().c_str());
    if (args.shrink) {
      ShrinkResult sr = shrink_instance(
          inst.circuit, inst.library_text,
          [&](const Network& c, const std::string& l) {
            return instance_fails(c, l, opt);
          });
      std::printf(
          "shrunk: %zu -> %zu circuit nodes, %zu -> %zu gates (%u probes)\n",
          sr.initial_nodes, sr.final_nodes, sr.initial_gates, sr.final_gates,
          sr.probes);
      write_repro(args, sr.circuit, sr.library_text);
    } else {
      write_repro(args, inst.circuit, inst.library_text);
    }
    return 1;
  }

  std::printf("OK: %llu instances, 0 violations (oracle on %llu)\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(oracle_checked));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_fuzz: %s\n", e.what());
  return 2;
}
