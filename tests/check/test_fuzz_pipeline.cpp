// The metamorphic fuzz suite (CTest label `fuzz`).  Each invariant gets a
// dedicated test over its own seed range, plus a full-suite quick sweep;
// together they cover well over 500 seeded instances and finish in a few
// seconds.  FuzzLong.DeepSweep is the `fuzz-long` tier: it does real work
// only when DAGMAP_FUZZ_LONG is set (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdlib>

#include "check/fuzz_pipeline.hpp"

namespace dagmap {
namespace {

// Runs `count` seeds with only `mask` enabled; every instance must hold.
void expect_clean(unsigned mask, std::uint64_t first_seed, int count) {
  FuzzOptions opt;
  opt.invariants = mask;
  for (int i = 0; i < count; ++i) {
    FuzzReport r = run_fuzz_seed(first_seed + i, opt);
    EXPECT_TRUE(r.ok) << r.to_string();
  }
}

// Seed ranges are disjoint across tests, so the label-`fuzz` tier covers
// distinct instances rather than re-checking the same ones.
TEST(FuzzInvariants, MappedNetlistEquivalentToSubject) {
  expect_clean(kFuzzEquivalence, 10'000, 100);
}

TEST(FuzzInvariants, FastLabelsMatchReferenceOracle) {
  expect_clean(kFuzzOracleOptimality, 20'000, 100);
}

TEST(FuzzInvariants, TreeCoverNeverBeatsDagCover) {
  expect_clean(kFuzzTreeVsDag, 30'000, 100);
}

TEST(FuzzInvariants, ExtendedMatchesNeverWorseThanStandard) {
  expect_clean(kFuzzExtendedVsStandard, 40'000, 100);
}

TEST(FuzzInvariants, ThreadCountDoesNotChangeTheResult) {
  expect_clean(kFuzzThreadDeterminism, 50'000, 100);
}

TEST(FuzzInvariants, SupergateLibraryNeverMapsSlowerThanBase) {
  expect_clean(kFuzzSupergateDominance, 60'000, 40);
}

TEST(FuzzInvariants, CutBackendNeverMapsSlowerThanStructural) {
  expect_clean(kFuzzBackendCross, 70'000, 40);
}

TEST(FuzzInvariants, SupergateDominanceHoldsOnMultiLevelLibraries) {
  // Multi-level base gates (non-read-once functions) are the richest
  // composition fodder; the dominance and equivalence invariants must
  // hold there too.
  FuzzOptions opt;
  opt.invariants = kFuzzSupergateDominance | kFuzzEquivalence;
  opt.multi_level_libraries = true;
  for (int i = 0; i < 25; ++i) {
    FuzzReport r = run_fuzz_seed(61'000 + i, opt);
    EXPECT_TRUE(r.ok) << r.to_string();
  }
}

TEST(FuzzInvariants, LoadRoundsNeverMeasureWorseThanRoundZero) {
  expect_clean(kFuzzLoadRounds, 80'000, 40);
}

// The full-suite quick sweep over seeds 1-200, in four CTest cases so
// that a parallel ctest spreads it.
TEST(FuzzPipeline, QuickSweepAllInvariantsSeeds1To50) {
  expect_clean(kFuzzAllInvariants, 1, 50);
}

TEST(FuzzPipeline, QuickSweepAllInvariantsSeeds51To100) {
  expect_clean(kFuzzAllInvariants, 51, 50);
}

TEST(FuzzPipeline, QuickSweepAllInvariantsSeeds101To150) {
  expect_clean(kFuzzAllInvariants, 101, 50);
}

TEST(FuzzPipeline, QuickSweepAllInvariantsSeeds151To200) {
  expect_clean(kFuzzAllInvariants, 151, 50);
}

TEST(FuzzPipeline, InstancesAreDeterministicInTheSeed) {
  FuzzInstance a = make_fuzz_instance(77);
  FuzzInstance b = make_fuzz_instance(77);
  EXPECT_EQ(a.library_text, b.library_text);
  EXPECT_EQ(a.circuit.size(), b.circuit.size());
  EXPECT_NE(make_fuzz_instance(78).library_text, a.library_text);
}

TEST(FuzzPipeline, InjectedLabelBugIsDetected) {
  // The harness must be able to see a broken mapper: with the test hook
  // on, the oracle comparison fails on any subject containing an
  // inverter (seed 1 does).
  FuzzOptions opt;
  opt.inject_label_bug = true;
  FuzzReport r = run_fuzz_seed(1, opt);
  ASSERT_FALSE(r.ok) << "injected bug went unnoticed";
  bool oracle_caught_it = false;
  for (const FuzzViolation& v : r.violations)
    if (v.invariant == "OracleOptimality") oracle_caught_it = true;
  EXPECT_TRUE(oracle_caught_it) << r.to_string();
}

TEST(FuzzPipeline, InjectedBackendBugIsDetected) {
  // Same bar for the ninth invariant: a cut backend that ever came out
  // slower than the structural mapper must be caught.
  FuzzOptions opt;
  opt.invariants = kFuzzBackendCross;
  opt.inject_backend_bug = true;
  FuzzReport r = run_fuzz_seed(1, opt);
  ASSERT_FALSE(r.ok) << "injected bug went unnoticed";
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].invariant, "BackendCross");
}

TEST(FuzzPipeline, InjectedLoadBugIsDetected) {
  // And for the tenth: a load-aware flow that ever measured worse than
  // its own round 0 must be caught.
  FuzzOptions opt;
  opt.invariants = kFuzzLoadRounds;
  opt.inject_load_bug = true;
  FuzzReport r = run_fuzz_seed(1, opt);
  ASSERT_FALSE(r.ok) << "injected bug went unnoticed";
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].invariant, "LoadRounds");
}

TEST(FuzzLong, DeepSweep) {
  if (std::getenv("DAGMAP_FUZZ_LONG") == nullptr)
    GTEST_SKIP() << "set DAGMAP_FUZZ_LONG=1 (or run `ctest -C long -L "
                    "fuzz-long`) for the deep sweep";
  FuzzOptions opt;
  opt.max_nodes = 80;  // bigger instances than the quick tier
  for (std::uint64_t seed = 100'000; seed < 105'000; ++seed) {
    FuzzReport r = run_fuzz_seed(seed, opt);
    ASSERT_TRUE(r.ok) << r.to_string();
  }
}

}  // namespace
}  // namespace dagmap
