#include "check/fuzz_pipeline.hpp"

#include <cmath>
#include <sstream>

#include "check/reference_cover.hpp"
#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "io/genlib.hpp"
#include "libcache/compiled_library.hpp"
#include "mapnet/write.hpp"
#include "sim/simulator.hpp"
#include "supergate/supergate.hpp"
#include "treemap/tree_mapper.hpp"

namespace dagmap {

namespace {

// Seed splitter: decorrelates the circuit and library streams so that
// nearby seeds do not share structure.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + salt * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

unsigned pick(std::uint64_t bits, unsigned lo, unsigned hi) {
  return lo + static_cast<unsigned>(bits % (hi - lo + 1));
}

constexpr double kEps = 1e-6;

}  // namespace

FuzzInstance make_fuzz_instance(std::uint64_t seed,
                                const FuzzOptions& options) {
  unsigned num_inputs =
      pick(mix(seed, 1), options.min_inputs, options.max_inputs);
  unsigned num_nodes = pick(mix(seed, 2), options.min_nodes, options.max_nodes);
  unsigned num_outputs =
      pick(mix(seed, 3), options.min_outputs, options.max_outputs);
  Network circuit =
      make_random_dag(num_inputs, num_nodes, num_outputs, mix(seed, 4));
  circuit.set_name("fuzz" + std::to_string(seed));

  unsigned n_gates = pick(mix(seed, 5), options.min_gates, options.max_gates);
  unsigned max_in = pick(mix(seed, 6), 2, options.max_gate_inputs);
  std::string library_text = make_random_genlib(mix(seed, 7), n_gates, max_in,
                                                options.multi_level_libraries);
  GateLibrary library = GateLibrary::from_genlib_text(
      library_text, "fuzz" + std::to_string(seed));
  return FuzzInstance{seed, std::move(circuit), std::move(library_text),
                      std::move(library)};
}

std::string FuzzReport::to_string() const {
  std::ostringstream out;
  out << "seed " << seed << ": "
      << (ok ? "ok" : std::to_string(violations.size()) + " violation(s)")
      << " (subject " << subject_nodes << " nodes, oracle "
      << (oracle_checked ? "checked" : "skipped") << ")";
  for (const FuzzViolation& v : violations)
    out << "\n  [" << v.invariant << "] " << v.detail;
  return out.str();
}

FuzzReport run_fuzz_instance(const FuzzInstance& instance,
                             const FuzzOptions& options) {
  FuzzReport report;
  report.seed = instance.seed;
  auto fail = [&](std::string invariant, std::string detail) {
    report.ok = false;
    report.violations.push_back({std::move(invariant), std::move(detail)});
  };

  Network subject = tech_decompose(instance.circuit);
  report.subject_nodes = subject.size();
  const GateLibrary& lib = instance.library;

  if (options.invariants & kFuzzEquivalence) {
    EquivalenceResult d = check_equivalence(instance.circuit, subject);
    if (!d.equivalent)
      fail("Equivalence", "tech_decompose broke the circuit: output " +
                              std::to_string(d.failing_output) + " cex " +
                              d.counterexample_hex());
  }

  // Fast mapper, both match classes, sequential labeling.
  MapResult std_map = dag_map(subject, lib, {.match_class = MatchClass::Standard});
  MapResult ext_map = dag_map(subject, lib, {.match_class = MatchClass::Extended});

  if (options.invariants & kFuzzEquivalence) {
    for (const auto* r : {&std_map, &ext_map}) {
      EquivalenceResult e = check_equivalence(subject, r->netlist.to_network());
      if (!e.equivalent)
        fail("Equivalence",
             std::string(r == &std_map ? "standard" : "extended") +
                 " cover differs from subject: output " +
                 std::to_string(e.failing_output) + " cex " +
                 e.counterexample_hex());
    }
  }

  if (options.invariants & kFuzzOracleOptimality) {
    bool truncated = std_map.truncations > 0 || ext_map.truncations > 0;
    if (subject.num_internal() <= options.oracle_max_internal && !truncated) {
      report.oracle_checked = true;
      for (MatchClass mc : {MatchClass::Standard, MatchClass::Extended}) {
        const MapResult& fast = mc == MatchClass::Standard ? std_map : ext_map;
        std::vector<double> fast_label = fast.label;
        if (options.inject_label_bug) {
          for (NodeId n = 0; n < subject.size(); ++n)
            if (subject.kind(n) == NodeKind::Inv) fast_label[n] += 0.25;
        }
        ReferenceLabels ref =
            reference_labels(subject, lib, mc, options.oracle_max_internal);
        for (NodeId n = 0; n < subject.size(); ++n) {
          if (std::abs(fast_label[n] - ref.label[n]) > kEps) {
            fail("OracleOptimality",
                 std::string(to_string(mc)) + " label of node " +
                     std::to_string(n) + " is " +
                     std::to_string(fast_label[n]) + ", oracle says " +
                     std::to_string(ref.label[n]));
            break;  // one per class keeps reports readable
          }
        }
      }
    }
  }

  if (options.invariants & kFuzzTreeVsDag) {
    MapResult tree = tree_map(subject, lib);
    if (tree.optimal_delay < std_map.optimal_delay - kEps)
      fail("TreeVsDag", "tree delay " + std::to_string(tree.optimal_delay) +
                            " beats DAG delay " +
                            std::to_string(std_map.optimal_delay));
  }

  if (options.invariants & kFuzzExtendedVsStandard) {
    if (ext_map.optimal_delay > std_map.optimal_delay + kEps)
      fail("ExtendedVsStandard",
           "extended delay " + std::to_string(ext_map.optimal_delay) +
               " worse than standard delay " +
               std::to_string(std_map.optimal_delay));
  }

  if (options.invariants & kFuzzSupergateDominance) {
    // Small bounds keep generation cheap on arbitrary random libraries;
    // the invariant holds for any bounds, since augmentation only adds
    // gates.  Mapping reuses std_map as the base side.
    SupergateOptions sg_options;
    sg_options.max_components = 3;
    sg_options.max_steps_per_root = 20000;
    SupergateLibrary sg = generate_supergates(
        parse_genlib(instance.library_text), sg_options,
        "fuzz-sg" + std::to_string(instance.seed));
    MapResult sg_map =
        dag_map(subject, sg.library, {.match_class = MatchClass::Standard});
    if (options.inject_supergate_bug)
      sg_map.optimal_delay = std_map.optimal_delay + 1.0;
    if (sg_map.optimal_delay > std_map.optimal_delay + kEps)
      fail("SupergateDominance",
           "supergate delay " + std::to_string(sg_map.optimal_delay) +
               " worse than base delay " +
               std::to_string(std_map.optimal_delay) + " (" +
               std::to_string(sg.stats.kept) + " supergates kept)");
    EquivalenceResult e = check_equivalence(subject, sg_map.netlist.to_network());
    if (!e.equivalent)
      fail("SupergateDominance",
           "supergate cover differs from subject: output " +
               std::to_string(e.failing_output) + " cex " +
               e.counterexample_hex());
  }

  if (options.invariants & kFuzzThreadDeterminism) {
    std::string blif1 = write_mapped_blif(std_map.netlist);
    for (unsigned threads : {2u, 4u, 0u}) {
      MapResult r = dag_map(subject, lib,
                            {.match_class = MatchClass::Standard,
                             .num_threads = threads});
      if (r.label != std_map.label) {
        fail("ThreadDeterminism",
             "labels differ between num_threads=1 and num_threads=" +
                 std::to_string(threads));
        continue;
      }
      if (write_mapped_blif(r.netlist) != blif1)
        fail("ThreadDeterminism",
             "mapped netlist differs between num_threads=1 and num_threads=" +
                 std::to_string(threads));
    }
  }

  if (options.invariants & kFuzzBackendCross) {
    // The cut backend considers every structural match plus the NPN cut
    // matches, so its delay can never exceed the structural backend's.
    // Tight knobs (cut_count 4) exercise the truncation path without
    // weakening the bound: the structural matches are always candidates.
    CutMapOptions copt;
    copt.match_class = MatchClass::Standard;
    copt.cuts.count = 4;
    MapResult cut = cut_map(subject, lib, copt);
    if (options.inject_backend_bug)
      cut.optimal_delay = std_map.optimal_delay + 1.0;
    if (cut.optimal_delay > std_map.optimal_delay + kEps)
      fail("BackendCross",
           "cut-backend delay " + std::to_string(cut.optimal_delay) +
               " worse than structural delay " +
               std::to_string(std_map.optimal_delay));
    EquivalenceResult e =
        check_equivalence(instance.circuit, cut.netlist.to_network());
    if (!e.equivalent)
      fail("BackendCross",
           "cut-backend cover differs from the circuit: output " +
               std::to_string(e.failing_output) + " cex " +
               e.counterexample_hex());
  }

  if (options.invariants & kFuzzLoadRounds) {
    // Keep-best monotonicity of the load-aware rounds: round 0 (the
    // load-oblivious mapping, measured under the same LoadModel) is
    // always a candidate, so the selected round can never measure
    // worse.  The re-mapped cover must also still compute the circuit.
    DagMapOptions lopt;
    lopt.match_class = MatchClass::Standard;
    lopt.load_rounds = 2;
    MapResult lr = dag_map(subject, lib, lopt);
    if (options.inject_load_bug)
      lr.loaded_delay = lr.loaded_delay_round0 + 1.0;
    if (lr.loaded_delay > lr.loaded_delay_round0 + kEps)
      fail("LoadRounds",
           "load-aware measured delay " + std::to_string(lr.loaded_delay) +
               " worse than load-oblivious round 0 " +
               std::to_string(lr.loaded_delay_round0) + " (selected round " +
               std::to_string(lr.load_round_selected) + ")");
    EquivalenceResult e =
        check_equivalence(instance.circuit, lr.netlist.to_network());
    if (!e.equivalent)
      fail("LoadRounds",
           "load-aware cover differs from the circuit: output " +
               std::to_string(e.failing_output) + " cex " +
               e.counterexample_hex());
  }

  if (options.invariants & kFuzzChoiceDominance) {
    // Per-class pricing only ever lowers a leaf price, so on the same
    // choice subject the annotated mapping's labels are pointwise <= the
    // unannotated ones (structural backend); the cut backend's candidate
    // set per node is a superset of the structural matcher's, so its
    // choice mapping is bounded by the same baseline.  Both covers must
    // still compute the source circuit through whichever variants the
    // folds picked.
    ChoiceDecomposition choice = tech_decompose_choices(instance.circuit);
    choice.validate();
    MapResult base =
        dag_map(choice.subject, lib, {.match_class = MatchClass::Standard});
    MapResult on = dag_map(choice.subject, lib,
                           {.match_class = MatchClass::Standard,
                            .choices = &choice.classes});
    CutMapOptions ccopt;
    ccopt.match_class = MatchClass::Standard;
    ccopt.cuts.count = 4;
    ccopt.choices = &choice.classes;
    MapResult cut_on = cut_map(choice.subject, lib, ccopt);
    if (options.inject_choice_bug)
      on.optimal_delay = base.optimal_delay + 1.0;
    if (on.optimal_delay > base.optimal_delay + kEps)
      fail("ChoiceDominance",
           "choice delay " + std::to_string(on.optimal_delay) +
               " worse than the choices-off delay " +
               std::to_string(base.optimal_delay));
    if (cut_on.optimal_delay > base.optimal_delay + kEps)
      fail("ChoiceDominance",
           "cut-backend choice delay " + std::to_string(cut_on.optimal_delay) +
               " worse than the structural choices-off delay " +
               std::to_string(base.optimal_delay));
    for (const auto* r : {&on, &cut_on}) {
      EquivalenceResult e =
          check_equivalence(instance.circuit, r->netlist.to_network());
      if (!e.equivalent)
        fail("ChoiceDominance",
             std::string(r == &on ? "structural" : "cut-backend") +
                 " choice cover differs from the circuit: output " +
                 std::to_string(e.failing_output) + " cex " +
                 e.counterexample_hex());
    }
  }

  if (options.invariants & kFuzzLibCache) {
    try {
      CompiledLibrary fresh =
          compile_library(instance.library_text, {},
                          "fuzz-lc" + std::to_string(instance.seed));
      std::string bytes = serialize_compiled_library(fresh);
      LibraryLoadResult loaded = deserialize_compiled_library(bytes);
      if (!loaded.ok) {
        fail("LibCache", "round-trip load failed: " + loaded.error);
      } else {
        if (serialize_compiled_library(loaded.lib) != bytes)
          fail("LibCache", "save -> load -> save is not byte-stable");
        MapResult r = dag_map(subject, loaded.lib.library,
                              {.match_class = MatchClass::Standard,
                               .pattern_index = &loaded.lib.index});
        if (r.label != std_map.label)
          fail("LibCache", "labels differ between the fresh and the "
                           "cache-loaded library");
        else if (r.optimal_delay != std_map.optimal_delay)
          fail("LibCache", "optimal delay differs: fresh " +
                               std::to_string(std_map.optimal_delay) +
                               ", loaded " + std::to_string(r.optimal_delay));
        else if (r.netlist.structural_hash() !=
                     std_map.netlist.structural_hash() ||
                 write_mapped_blif(r.netlist) !=
                     write_mapped_blif(std_map.netlist))
          fail("LibCache", "mapped netlist differs between the fresh and "
                           "the cache-loaded library");
      }
      // Any single flipped bit must be rejected: payload flips break the
      // FNV-1a checksum, header flips break magic/version/size/hash
      // validation.  Positions are seed-derived, so every seed probes
      // different offsets and reruns reproduce exactly.
      for (unsigned k = 0; k < 8; ++k) {
        std::size_t pos = static_cast<std::size_t>(
            mix(instance.seed, 100 + k) % bytes.size());
        std::string corrupt = bytes;
        corrupt[pos] = static_cast<char>(
            corrupt[pos] ^ (1u << (mix(instance.seed, 200 + k) % 8)));
        if (deserialize_compiled_library(corrupt).ok) {
          fail("LibCache", "artifact with byte " + std::to_string(pos) +
                               " flipped was accepted");
          break;
        }
      }
    } catch (const std::exception& e) {
      fail("LibCache", std::string("unexpected exception: ") + e.what());
    }
  }

  return report;
}

FuzzReport run_fuzz_seed(std::uint64_t seed, const FuzzOptions& options) {
  return run_fuzz_instance(make_fuzz_instance(seed, options), options);
}

}  // namespace dagmap
