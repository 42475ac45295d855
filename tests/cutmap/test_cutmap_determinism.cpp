// Priority-cut backend determinism: bit-identical results at 1/2/4/8
// worker threads, with and without area rounds.  This binary carries
// the `tsan` CTest label; build with -DDAGMAP_SANITIZE=thread to sweep
// the parallel cut enumeration and labeling under ThreadSanitizer.
#include <gtest/gtest.h>

#include "cutmap/cut_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"

namespace dagmap {
namespace {

void expect_identical(const MapResult& a, const MapResult& b,
                      const char* what) {
  ASSERT_EQ(a.label.size(), b.label.size());
  for (std::size_t i = 0; i < a.label.size(); ++i)
    ASSERT_EQ(a.label[i], b.label[i]) << what << ": label of node " << i;
  EXPECT_EQ(a.optimal_delay, b.optimal_delay) << what;
  EXPECT_EQ(a.netlist.num_gates(), b.netlist.num_gates()) << what;
  EXPECT_EQ(a.netlist.total_area(), b.netlist.total_area()) << what;
  EXPECT_EQ(a.netlist.gate_histogram(), b.netlist.gate_histogram()) << what;
  EXPECT_EQ(a.matches_enumerated, b.matches_enumerated) << what;
}

void sweep(const Network& subject, const GateLibrary& lib,
           CutMapOptions base) {
  base.num_threads = 1;
  MapResult seq = cut_map(subject, lib, base);
  for (unsigned threads : {2u, 4u, 8u}) {
    CutMapOptions o = base;
    o.num_threads = threads;
    expect_identical(seq, cut_map(subject, lib, o), "threads");
  }
}

TEST(CutMapDeterminism, AcrossThreadCountsOnSuite) {
  GateLibrary lib = make_lib2_library();
  for (const BenchmarkCircuit& bc : make_small_suite()) {
    SCOPED_TRACE(bc.name);
    sweep(tech_decompose(bc.network), lib, {});
  }
}

TEST(CutMapDeterminism, WithAreaRounds) {
  GateLibrary lib = make_lib2_library();
  Network subject = tech_decompose(make_alu(8));
  CutMapOptions rounds;
  rounds.rounds = 3;
  rounds.delay_factor = 1.2;
  sweep(subject, lib, rounds);
}

TEST(CutMapDeterminism, WithRichLibraryAndTightCutBudget) {
  GateLibrary lib = make_44_library(2);
  Network subject = tech_decompose(make_array_multiplier(6));
  CutMapOptions o;
  o.cuts.count = 4;
  sweep(subject, lib, o);
}

}  // namespace
}  // namespace dagmap
