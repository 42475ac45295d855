// Scale tier: the mapping pipeline end-to-end on large random subject
// graphs (gen/make_random_subject_graph), 1 thread against 4, and the
// phase coverage of a dagmap_cli-shaped job.  The ~100k runs are in the
// default tier (CTest label `scale`); the 1M-node run only fires in the
// `long` CTest configuration (`ctest -C long -L fuzz-long`), gated here
// by the DAGMAP_SCALE_LONG environment variable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "core/dag_mapper.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "libcache/request.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"

namespace dagmap {
namespace {

// Single-thread vs 4-thread on one subject (wide waves, so every wave
// runs in chunks on every worker): labels, delay, and netlist structural
// hash must be bit-identical.  (BLIF byte comparison lives in the
// small-circuit tests — at this scale the hash is the cheap
// whole-netlist equality check.)
void expect_scale_identity(std::size_t num_nodes, std::uint64_t seed) {
  Network subject = make_random_subject_graph(num_nodes, 64, 32, seed);
  GateLibrary lib = make_lib2_library();

  DagMapOptions seq;
  seq.num_threads = 1;
  MapResult ref = dag_map(subject, lib, seq);

  DagMapOptions par;
  par.num_threads = 4;
  MapResult r = dag_map(subject, lib, par);

  ASSERT_EQ(r.label, ref.label);
  EXPECT_EQ(r.optimal_delay, ref.optimal_delay);
  EXPECT_EQ(r.netlist.structural_hash(), ref.netlist.structural_hash());
  EXPECT_EQ(r.netlist.num_gates(), ref.netlist.num_gates());
  EXPECT_EQ(r.netlist.total_area(), ref.netlist.total_area());
}

TEST(ScalePipeline, HundredKNodeSmoke) {
  expect_scale_identity(100000, 0x5CA1E);
}

TEST(ScalePipeline, CliJobPhasesCoverItsWallTime) {
  // The steps of `dagmap_cli --library lib2.genlib --profile --out`, in
  // its scopes: read -> library.build -> decompose -> map phases ->
  // verify -> write -> release.  Their top-level phases must account for
  // at least 98 % of the session; the times themselves are not checked.
  std::string path = ::testing::TempDir() + "scale_cli_job.blif";
  write_blif_file(make_random_subject_graph(100000, 256, 256, 1), path);
  MapRequest req;
  req.verify = true;
  req.map.profile = true;

  obs::start();
  Network circuit = [&] {
    obs::Scope scope("read");
    return read_blif_file(path);
  }();
  CompiledLibrary lib = [] {
    obs::Scope scope("library.build");
    return compile_library(lib2_genlib_text(), {}, "lib2-like");
  }();
  RequestResult r = run_request(circuit, lib, req);
  {
    obs::Scope scope("write");
    std::ofstream(path + ".mapped") << write_mapped_blif(r.result.netlist);
  }
  std::optional<bool> equivalent = r.equivalent;
  {
    obs::Scope scope("release");
    circuit = Network();
    r = RequestResult();
  }
  obs::stop();
  obs::ProfileData profile = obs::collect();

  ASSERT_TRUE(equivalent.has_value());
  EXPECT_TRUE(*equivalent);
  double covered = 0.0;
  for (const obs::PhaseSummary& p : profile.phases) covered += p.seconds;
  EXPECT_GE(covered, 0.98 * profile.total_seconds) << profile.summary();
  for (const char* phase : {"read", "library.build", "decompose", "label",
                            "cover", "verify", "write", "release"}) {
    bool found = false;
    for (const obs::PhaseSummary& p : profile.phases) found |= p.name == phase;
    EXPECT_TRUE(found) << phase << " missing from\n" << profile.summary();
  }
  std::remove(path.c_str());
  std::remove((path + ".mapped").c_str());
}

TEST(ScaleLong, MillionNodeThreadIdentity) {
  if (std::getenv("DAGMAP_SCALE_LONG") == nullptr)
    GTEST_SKIP() << "set DAGMAP_SCALE_LONG=1 (ctest -C long) to run";
  expect_scale_identity(1000000, 0x1A11E);
}

}  // namespace
}  // namespace dagmap
