// Mapper fingerprints: the structural hash, delay, area and enumerated-
// match count of both candidate sources (structural matches, and
// structural matches plus NPN priority cuts) under every option family,
// pinned on four small-suite circuits against lib2 and 44-3.  Any change
// to the mapping driver must keep every row identical.  A mismatch
// prints the row to paste into kExpected if the change is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "library/standard_libs.hpp"

namespace dagmap {
namespace {

struct Fingerprint {
  const char* lib;
  const char* circuit;
  const char* flags;
  std::uint64_t hash;
  double delay;
  double area;
  std::uint64_t enumerated;
};

// clang-format off
constexpr Fingerprint kExpected[] = {
    {"lib2", "mult4", "default", 0xcd20ca0550096eedull, 15.4, 355, 600},
    {"lib2", "mult4", "extended", 0x43a4a1cb711e3b40ull, 15.4, 374, 628},
    {"lib2", "mult4", "area_recovery", 0xa4d213defe57535dull, 15.4, 231, 600},
    {"lib2", "mult4", "area_recovery_target125", 0xd08f013ec96ab54aull, 15.4, 230, 600},
    {"lib2", "mult4", "cuts", 0xa2a393a599f6366cull, 15.200000000000001, 376, 2395},
    {"lib2", "mult4", "cuts_rounds3_df12", 0xe9e2f8e8baf95270ull, 15.200000000000001, 221, 2395},
    {"lib2", "mult4", "choices", 0xfbfc9e7a07dfbed8ull, 14.200000000000001, 384, 1827},
    {"lib2", "mult4", "cuts_choices", 0x54d8380d09a5b489ull, 14.200000000000001, 383, 6844},
    {"lib2", "mult4", "load_rounds2", 0x72fd9d45d5ce932cull, 22.569612903225803, 282, 600},
    {"lib2", "mult4", "cuts_load_rounds2", 0xa2a393a599f6366cull, 15.200000000000001, 376, 2395},
    {"lib2", "mult4", "threads4", 0xcd20ca0550096eedull, 15.4, 355, 600},
    {"lib2", "mult4", "cuts_threads4", 0xa2a393a599f6366cull, 15.200000000000001, 376, 2395},
    {"lib2", "alu4", "default", 0x62ee6801fcab4410ull, 13.799999999999999, 179, 249},
    {"lib2", "alu4", "extended", 0x0021a444495aa2feull, 13.799999999999999, 179, 259},
    {"lib2", "alu4", "area_recovery", 0xc0c19e81703cb398ull, 13.799999999999999, 150, 249},
    {"lib2", "alu4", "area_recovery_target125", 0xa27e6e37f335c732ull, 13.799999999999999, 149, 249},
    {"lib2", "alu4", "cuts", 0x00deff13c914f7fbull, 12.4, 188, 1279},
    {"lib2", "alu4", "cuts_rounds3_df12", 0x85fe787fba46a893ull, 12.4, 141, 1279},
    {"lib2", "alu4", "choices", 0xadecca44b0932630ull, 12.799999999999999, 180, 1061},
    {"lib2", "alu4", "cuts_choices", 0xf72f9ff1971e1f26ull, 11.4, 188, 4452},
    {"lib2", "alu4", "load_rounds2", 0x62ee6801fcab4410ull, 13.799999999999999, 179, 249},
    {"lib2", "alu4", "cuts_load_rounds2", 0x64e991457021e5aeull, 16.240000000000002, 187, 1290},
    {"lib2", "alu4", "threads4", 0x62ee6801fcab4410ull, 13.799999999999999, 179, 249},
    {"lib2", "alu4", "cuts_threads4", 0x00deff13c914f7fbull, 12.4, 188, 1279},
    {"lib2", "cmp8", "default", 0x96b2c44015f121beull, 8.5999999999999996, 248, 593},
    {"lib2", "cmp8", "extended", 0x96b2c44015f121beull, 8.5999999999999996, 248, 593},
    {"lib2", "cmp8", "area_recovery", 0x73b99d0417364f61ull, 8.5999999999999996, 212, 593},
    {"lib2", "cmp8", "area_recovery_target125", 0x9c0d1175b2c94edeull, 8.5999999999999996, 160, 593},
    {"lib2", "cmp8", "cuts", 0x67e2eb5bc26f5e8dull, 8.5999999999999996, 188, 1999},
    {"lib2", "cmp8", "cuts_rounds3_df12", 0x40b4728a38f8882cull, 8.5999999999999996, 159, 1999},
    {"lib2", "cmp8", "choices", 0x70cb4d1a51f42328ull, 8.7999999999999989, 186, 731},
    {"lib2", "cmp8", "cuts_choices", 0xa7ca0e001555c0d2ull, 8.7999999999999989, 179, 3027},
    {"lib2", "cmp8", "load_rounds2", 0x96b2c44015f121beull, 8.5999999999999996, 248, 593},
    {"lib2", "cmp8", "cuts_load_rounds2", 0x55d3466967d7ee8aull, 10.484726027397262, 194, 2015},
    {"lib2", "cmp8", "threads4", 0x96b2c44015f121beull, 8.5999999999999996, 248, 593},
    {"lib2", "cmp8", "cuts_threads4", 0x67e2eb5bc26f5e8dull, 8.5999999999999996, 188, 1999},
    {"lib2", "rand200", "default", 0xeaf2fb5a5ceae330ull, 40.200000000000003, 1516, 4981},
    {"lib2", "rand200", "extended", 0x384369443997eeb0ull, 39.599999999999994, 1538, 5042},
    {"lib2", "rand200", "area_recovery", 0xdf3f88ed3de06011ull, 40.200000000000003, 989, 4981},
    {"lib2", "rand200", "area_recovery_target125", 0xbe977eb0e3fb8473ull, 40.200000000000003, 889, 4981},
    {"lib2", "rand200", "cuts", 0xf04adc226b3908adull, 27.200000000000003, 1255, 12327},
    {"lib2", "rand200", "cuts_rounds3_df12", 0x6e46945bc9c59f17ull, 27.200000000000003, 795, 12327},
    {"lib2", "rand200", "choices", 0x5ee844873c90e90aull, 38, 1554, 23984},
    {"lib2", "rand200", "cuts_choices", 0x37f11a15daea0ff4ull, 23.600000000000001, 1168, 52224},
    {"lib2", "rand200", "load_rounds2", 0x32ab39d999a1f471ull, 71.040865800865816, 1636, 4981},
    {"lib2", "rand200", "cuts_load_rounds2", 0x29c66b7dda31635full, 51.993023809523812, 1297, 12305},
    {"lib2", "rand200", "threads4", 0xeaf2fb5a5ceae330ull, 40.200000000000003, 1516, 4981},
    {"lib2", "rand200", "cuts_threads4", 0xf04adc226b3908adull, 27.200000000000003, 1255, 12327},
    {"44-3", "mult4", "default", 0xfed9946e5cee8ea0ull, 15.280000000000001, 357, 1541},
    {"44-3", "mult4", "extended", 0x5426c125f35cbdaeull, 15.190000000000001, 376, 6053},
    {"44-3", "mult4", "area_recovery", 0xe66443a35cebdcdcull, 15.280000000000001, 303, 1541},
    {"44-3", "mult4", "area_recovery_target125", 0x029fa2f3c95c56deull, 15.280000000000001, 292, 1541},
    {"44-3", "mult4", "cuts", 0x9135723b260b9a92ull, 15.080000000000004, 414, 7639},
    {"44-3", "mult4", "cuts_rounds3_df12", 0x7ae9f11ec084fda9ull, 15.080000000000004, 295, 7639},
    {"44-3", "mult4", "choices", 0xb6bc71ea7e5e9393ull, 14.09, 333, 8121},
    {"44-3", "mult4", "cuts_choices", 0xdfda4ff5017bf8dcull, 13.370000000000001, 414, 25950},
    {"44-3", "mult4", "load_rounds2", 0xfed9946e5cee8ea0ull, 15.280000000000001, 357, 1541},
    {"44-3", "mult4", "cuts_load_rounds2", 0x9135723b260b9a92ull, 15.080000000000004, 414, 7639},
    {"44-3", "mult4", "threads4", 0xfed9946e5cee8ea0ull, 15.280000000000001, 357, 1541},
    {"44-3", "mult4", "cuts_threads4", 0x9135723b260b9a92ull, 15.080000000000004, 414, 7639},
    {"44-3", "alu4", "default", 0xfb7217bd2b481181ull, 13.890000000000004, 200, 598},
    {"44-3", "alu4", "extended", 0x8ad8a54898f72d68ull, 13.800000000000004, 209, 646},
    {"44-3", "alu4", "area_recovery", 0xf7c492c8f4a12266ull, 13.890000000000004, 187, 598},
    {"44-3", "alu4", "area_recovery_target125", 0x5d84f27c530a3583ull, 13.890000000000004, 186, 598},
    {"44-3", "alu4", "cuts", 0xdabd2d2b932a0539ull, 13.390000000000001, 234, 4104},
    {"44-3", "alu4", "cuts_rounds3_df12", 0xe38b1af81f0d8992ull, 13.390000000000001, 195, 4104},
    {"44-3", "alu4", "choices", 0xf32c06104fed10f7ull, 12.82, 188, 3301},
    {"44-3", "alu4", "cuts_choices", 0x2f10ba90a1ec641dull, 10.68, 210, 14656},
    {"44-3", "alu4", "load_rounds2", 0xfb7217bd2b481181ull, 13.890000000000004, 200, 598},
    {"44-3", "alu4", "cuts_load_rounds2", 0xdabd2d2b932a0539ull, 13.390000000000001, 234, 4104},
    {"44-3", "alu4", "threads4", 0xfb7217bd2b481181ull, 13.890000000000004, 200, 598},
    {"44-3", "alu4", "cuts_threads4", 0xdabd2d2b932a0539ull, 13.390000000000001, 234, 4104},
    {"44-3", "cmp8", "default", 0x65a3b5ae96c6b2b9ull, 7.3399999999999999, 171, 4131},
    {"44-3", "cmp8", "extended", 0x65a3b5ae96c6b2b9ull, 7.3399999999999999, 171, 10223},
    {"44-3", "cmp8", "area_recovery", 0xf6219f08ed9f883bull, 7.3399999999999999, 159, 4131},
    {"44-3", "cmp8", "area_recovery_target125", 0x6c3815a53ce2e95cull, 7.3399999999999999, 149, 4131},
    {"44-3", "cmp8", "cuts", 0x02f4f6c37e4d2257ull, 7.3100000000000005, 204, 8413},
    {"44-3", "cmp8", "cuts_rounds3_df12", 0x13f70c01f628c1d4ull, 7.3100000000000005, 132, 8413},
    {"44-3", "cmp8", "choices", 0x2a6b2d1fd2d94094ull, 8.2200000000000006, 179, 4679},
    {"44-3", "cmp8", "cuts_choices", 0x18d5855b9fca6908ull, 8.1799999999999997, 174, 11231},
    {"44-3", "cmp8", "load_rounds2", 0x65a3b5ae96c6b2b9ull, 7.3399999999999999, 171, 4131},
    {"44-3", "cmp8", "cuts_load_rounds2", 0x02f4f6c37e4d2257ull, 7.3100000000000005, 204, 8413},
    {"44-3", "cmp8", "threads4", 0x65a3b5ae96c6b2b9ull, 7.3399999999999999, 171, 4131},
    {"44-3", "cmp8", "cuts_threads4", 0x02f4f6c37e4d2257ull, 7.3100000000000005, 204, 8413},
    {"44-3", "rand200", "default", 0xd05117093d50522aull, 32.160000000000004, 1513, 51092},
    {"44-3", "rand200", "extended", 0x1f4b2243208c9ac5ull, 32.059999999999995, 1557, 67509},
    {"44-3", "rand200", "area_recovery", 0xa9944afa7c109202ull, 32.160000000000004, 1096, 51092},
    {"44-3", "rand200", "area_recovery_target125", 0xcfb9a90439d10477ull, 32.160000000000004, 996, 51092},
    {"44-3", "rand200", "cuts", 0x4562d5b62a7868c8ull, 23.969999999999999, 1365, 70738},
    {"44-3", "rand200", "cuts_rounds3_df12", 0xf6e1254221f00621ull, 23.969999999999999, 945, 70738},
    {"44-3", "rand200", "choices", 0x36de5e04d8ce6741ull, 32.899999999999999, 1689, 279754},
    {"44-3", "rand200", "cuts_choices", 0x11b119068d2aa149ull, 20.260000000000002, 1295, 356490},
    {"44-3", "rand200", "load_rounds2", 0xd05117093d50522aull, 32.160000000000004, 1513, 51092},
    {"44-3", "rand200", "cuts_load_rounds2", 0x4562d5b62a7868c8ull, 23.969999999999999, 1365, 70738},
    {"44-3", "rand200", "threads4", 0xd05117093d50522aull, 32.160000000000004, 1513, 51092},
    {"44-3", "rand200", "cuts_threads4", 0x4562d5b62a7868c8ull, 23.969999999999999, 1365, 70738},
};
// clang-format on

const char* const kFlagSets[] = {
    "default",           "extended",
    "area_recovery",     "area_recovery_target125",
    "cuts",              "cuts_rounds3_df12",
    "choices",           "cuts_choices",
    "load_rounds2",      "cuts_load_rounds2",
    "threads4",          "cuts_threads4",
};

MapResult map_with(const std::string& flags, const Network& circuit,
                   const GateLibrary& lib) {
  Network subject = tech_decompose(circuit);
  if (flags == "choices" || flags == "cuts_choices") {
    ChoiceDecomposition choice = tech_decompose_choices(circuit);
    if (flags == "choices") {
      DagMapOptions o;
      o.choices = &choice.classes;
      return dag_map(choice.subject, lib, o);
    }
    CutMapOptions o;
    o.choices = &choice.classes;
    return cut_map(choice.subject, lib, o);
  }
  DagMapOptions d;
  CutMapOptions c;
  if (flags == "default") return dag_map(subject, lib, d);
  if (flags == "extended") {
    d.match_class = MatchClass::Extended;
    return dag_map(subject, lib, d);
  }
  if (flags == "area_recovery" || flags == "area_recovery_target125") {
    d.area_recovery = true;
    if (flags == "area_recovery_target125")
      d.target_delay = 1.25 * dag_map(subject, lib).optimal_delay;
    return dag_map(subject, lib, d);
  }
  if (flags == "cuts") return cut_map(subject, lib, c);
  if (flags == "cuts_rounds3_df12") {
    c.rounds = 3;
    c.delay_factor = 1.2;
    return cut_map(subject, lib, c);
  }
  if (flags == "load_rounds2") {
    d.load_rounds = 2;
    return dag_map(subject, lib, d);
  }
  if (flags == "cuts_load_rounds2") {
    c.load_rounds = 2;
    return cut_map(subject, lib, c);
  }
  if (flags == "threads4") {
    d.num_threads = 4;
    return dag_map(subject, lib, d);
  }
  if (flags == "cuts_threads4") {
    c.num_threads = 4;
    return cut_map(subject, lib, c);
  }
  ADD_FAILURE() << "unknown flag set " << flags;
  return {};
}

const Fingerprint* expected_row(const std::string& lib,
                                const std::string& circuit,
                                const std::string& flags) {
  for (const Fingerprint& f : kExpected)
    if (lib == f.lib && circuit == f.circuit && flags == f.flags) return &f;
  return nullptr;
}

TEST(MapperFingerprints, BothSourcesUnderEveryOptionFamily) {
  struct NamedLib {
    const char* name;
    GateLibrary lib;
  };
  std::vector<NamedLib> libs;
  libs.push_back({"lib2", make_lib2_library()});
  libs.push_back({"44-3", make_44_library(3)});
  std::vector<BenchmarkCircuit> circuits;
  for (BenchmarkCircuit& b : make_small_suite())
    if (b.name == "mult4" || b.name == "alu4" || b.name == "cmp8" ||
        b.name == "rand200")
      circuits.push_back(std::move(b));
  ASSERT_EQ(circuits.size(), 4u);

  std::size_t checked = 0;
  for (const NamedLib& l : libs)
    for (const BenchmarkCircuit& b : circuits)
      for (const char* flags : kFlagSets) {
        MapResult r = map_with(flags, b.network, l.lib);
        char row[256];
        std::snprintf(row, sizeof row,
                      "{\"%s\", \"%s\", \"%s\", 0x%016llxull, %.17g, %.17g, "
                      "%llu},",
                      l.name, b.name.c_str(), flags,
                      static_cast<unsigned long long>(
                          r.netlist.structural_hash()),
                      r.optimal_delay, r.netlist.total_area(),
                      static_cast<unsigned long long>(r.matches_enumerated));
        const Fingerprint* e = expected_row(l.name, b.name, flags);
        if (e == nullptr) {
          ADD_FAILURE() << "no recorded row; actual:\n    " << row;
          continue;
        }
        bool same = r.netlist.structural_hash() == e->hash &&
                    r.optimal_delay == e->delay &&
                    r.netlist.total_area() == e->area &&
                    r.matches_enumerated == e->enumerated;
        EXPECT_TRUE(same) << "fingerprint moved; actual:\n    " << row;
        ++checked;
      }
  EXPECT_EQ(checked, std::size(kExpected));
}

}  // namespace
}  // namespace dagmap
