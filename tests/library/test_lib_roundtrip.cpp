// Round-trip tests: generated libraries survive GENLIB serialization,
// and rebuilt libraries are functionally identical.
#include <gtest/gtest.h>

#include "io/genlib.hpp"
#include "libcache/binio.hpp"
#include "library/gate_library.hpp"
#include "library/standard_libs.hpp"

namespace dagmap {
namespace {

class FortyFourRoundTrip : public ::testing::TestWithParam<int> {};

// Exact, not within a few ULPs: the in-memory gates, the GENLIB text
// and every artifact compiled from that text must carry the same
// doubles, or `--lib44 N` and `--library 44-N.genlib` map differently.
TEST_P(FortyFourRoundTrip, GenlibSerializationPreservesEverything) {
  int level = GetParam();
  auto gates = make_44_genlib(level);
  auto gates2 = parse_genlib(write_genlib(gates));
  ASSERT_EQ(gates2.size(), gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    EXPECT_EQ(gates2[i].name, gates[i].name);
    EXPECT_EQ(gates2[i].area, gates[i].area);
    EXPECT_EQ(gates2[i].output_name, gates[i].output_name);
    auto v1 = expr_variables(gates[i].function);
    auto v2 = expr_variables(gates2[i].function);
    ASSERT_EQ(v1, v2) << gates[i].name;
    EXPECT_EQ(expr_truth_table(gates2[i].function, v2),
              expr_truth_table(gates[i].function, v1))
        << gates[i].name;
    ASSERT_EQ(gates2[i].pins.size(), gates[i].pins.size());
    for (std::size_t p = 0; p < gates[i].pins.size(); ++p) {
      const GenlibPin& a = gates[i].pins[p];
      const GenlibPin& b = gates2[i].pins[p];
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.phase, a.phase);
      EXPECT_EQ(b.input_load, a.input_load);
      EXPECT_EQ(b.max_load, a.max_load);
      EXPECT_EQ(b.rise_block, a.rise_block) << gates[i].name;
      EXPECT_EQ(b.rise_fanout, a.rise_fanout);
      EXPECT_EQ(b.fall_block, a.fall_block) << gates[i].name;
      EXPECT_EQ(b.fall_fanout, a.fall_fanout);
    }
  }
}

// The GENLIB bytes of the built-in libraries are benchmark and artifact
// inputs (their hash keys .dmlc freshness): FNV-1a-64 of the text as the
// %g-style writer printed it before it switched to shortest round-trip.
TEST_P(FortyFourRoundTrip, GenlibTextBytesUnchanged) {
  const std::uint64_t expected[] = {0xd66b3fd48d7dec0full, 0x0358dbd05de9ae12ull,
                                    0x802f660e995489e8ull};
  int level = GetParam();
  EXPECT_EQ(libcache::fnv1a64(write_genlib(make_44_genlib(level))),
            expected[level - 1]);
}

TEST_P(FortyFourRoundTrip, RebuiltLibraryMapsIdentically) {
  int level = GetParam();
  GateLibrary direct = make_44_library(level);
  GateLibrary rebuilt = GateLibrary::from_genlib(
      parse_genlib(write_genlib(make_44_genlib(level))), "rebuilt");
  ASSERT_EQ(rebuilt.size(), direct.size());
  EXPECT_EQ(rebuilt.total_patterns(), direct.total_patterns());
  EXPECT_EQ(rebuilt.total_pattern_nodes(), direct.total_pattern_nodes());
  EXPECT_EQ(rebuilt.max_gate_inputs(), direct.max_gate_inputs());
}

INSTANTIATE_TEST_SUITE_P(Levels, FortyFourRoundTrip, ::testing::Values(1, 2, 3));

TEST(Lib2RoundTrip, TextSurvives) {
  auto gates = parse_genlib(lib2_genlib_text());
  auto gates2 = parse_genlib(write_genlib(gates));
  ASSERT_EQ(gates2.size(), gates.size());
  GateLibrary lib = GateLibrary::from_genlib(gates2, "lib2rt");
  EXPECT_TRUE(lib.is_complete_for_mapping());
  EXPECT_NE(lib.buffer(), nullptr);
  EXPECT_EQ(libcache::fnv1a64(write_genlib(gates)), 0xfcaf160929412e9bull);
}

}  // namespace
}  // namespace dagmap
