// Scale tier: the mapping pipeline end-to-end on large random subject
// graphs (gen/make_random_subject_graph), 1 thread against 4.  The ~100k
// smoke runs in the default tier (CTest label `scale`); the 1M-node run
// only fires in the `long` CTest configuration (`ctest -C long -L
// fuzz-long`), gated here by the DAGMAP_SCALE_LONG environment variable.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/dag_mapper.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"

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

TEST(ScaleLong, MillionNodeThreadIdentity) {
  if (std::getenv("DAGMAP_SCALE_LONG") == nullptr)
    GTEST_SKIP() << "set DAGMAP_SCALE_LONG=1 (ctest -C long) to run";
  expect_scale_identity(1000000, 0x1A11E);
}

}  // namespace
}  // namespace dagmap
