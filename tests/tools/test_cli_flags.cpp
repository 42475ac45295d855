// dagmap_cli flags: every integer value goes through one from_chars
// parser, so a malformed value is a usage error (exit 2) that names the
// flag and the value, never a bare "stoul" exception.  Mapping knobs
// pass the range check shared with serve (validate_map_options), and
// none is silently ignored: each either acts on both backends or is a
// usage error.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <ostream>
#include <string>

namespace dagmap {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

CliRun run_cli(const std::string& args) {
  std::string cmd = std::string("'") + DAGMAP_CLI_PATH + "' " + args + " 2>&1";
  CliRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct BadFlag {
  const char* args;
  const char* message;
};

// Names each case by its arguments.  Without it gtest prints the two
// pointers, and the discovered test names would change with the load
// address of every build.
void PrintTo(const BadFlag& flag, std::ostream* os) { *os << flag.args; }

class CliNumericFlags : public ::testing::TestWithParam<BadFlag> {};

TEST_P(CliNumericFlags, MalformedValueIsAUsageErrorNamingTheFlag) {
  CliRun r = run_cli(std::string(GetParam().args) + " circuit.blif");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(GetParam().message), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage: dagmap_cli"), std::string::npos);
  EXPECT_EQ(r.output.find("dagmap_cli: sto"), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, CliNumericFlags,
    ::testing::Values(
        BadFlag{"--threads abc", "error: bad --threads value `abc`"},
        BadFlag{"--threads -1", "error: bad --threads value `-1`"},
        BadFlag{"--lib44 x", "error: bad --lib44 value `x`"},
        BadFlag{"--lib44 5", "error: bad --lib44 (want 1..3)"},
        BadFlag{"--cut-size 3x", "error: bad --cut-size value `3x`"},
        BadFlag{"--cut-count ''", "error: bad --cut-count value ``"},
        BadFlag{"--rounds 99999999999",
                "error: bad --rounds value `99999999999`"},
        BadFlag{"--supergates=two", "error: bad --supergates value `two`"},
        BadFlag{"--load-rounds=1.5", "error: bad --load-rounds value `1.5`"},
        BadFlag{"--load-rounds ' 2'", "error: bad --load-rounds value ` 2`"},
        BadFlag{"--buffer 0x2", "error: bad --buffer value `0x2`"},
        BadFlag{"--lut k", "error: bad --lut value `k`"},
        // Range checks shared with serve (validate_map_options).
        BadFlag{"--cut-count 65", "error: bad cut count 65 (want 1..64)"},
        BadFlag{"--rounds 17", "error: bad rounds 17 (want 1..16)"},
        BadFlag{"--load-rounds 17", "error: bad load rounds 17 (want 0..16)"},
        BadFlag{"--delay-factor 101",
                "error: bad delay factor 101 (want 1..100)"}));

TEST(CliNumericFlags, RemovedScheduleFlagsAreUnknown) {
  // There is one labeling schedule, so there are no schedule flags.
  for (const char* flag : {"--partition", "--partition=64", "--no-partition"}) {
    CliRun r = run_cli(std::string(flag) + " circuit.blif");
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find(std::string("error: unknown option ") + flag),
              std::string::npos)
        << flag << ": " << r.output;
  }
}

TEST(CliNumericFlags, WellFormedValuesParse) {
  // Every value parses, so the first complaint is the missing circuit.
  CliRun r = run_cli(
      "--threads 2 --lib44 3 --backend cuts --cut-size 3 --cut-count 4 "
      "--rounds 2 --supergates=1 --load-rounds=1 --buffer 0 "
      "--lut 0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("error: no circuit file"), std::string::npos)
      << r.output;
}

std::string golden(const std::string& rel) {
  return std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + rel;
}

/// True if the run mapped, verified, and reported `mapping` (e.g.
/// "cuts mapping: delay 4.000, area 26.0").
bool mapped_as(const CliRun& r, const std::string& mapping) {
  return r.exit_code == 0 &&
         r.output.find("verification: PASS") != std::string::npos &&
         r.output.find(mapping) != std::string::npos;
}

TEST(CliMapFlags, AreaRecoveryActsOnTheCutsBackend) {
  std::string circuit = golden("full_adder.blif");
  CliRun plain = run_cli("--backend cuts " + circuit);
  CliRun recovered = run_cli("--backend cuts --area-recovery " + circuit);
  EXPECT_TRUE(mapped_as(plain, "cuts mapping: delay 4.000, area 28.0"))
      << plain.output;
  EXPECT_TRUE(mapped_as(recovered, "cuts mapping: delay 4.000, area 26.0"))
      << recovered.output;
}

TEST(CliMapFlags, AreaRoundsActOnTheStructuralBackend) {
  std::string lib = "--library " + golden("full_adder.genlib") + " ";
  std::string circuit = golden("full_adder.blif");
  CliRun plain = run_cli(lib + circuit);
  CliRun rounds = run_cli(lib + "--rounds 3 --delay-factor 1.2 " + circuit);
  EXPECT_TRUE(mapped_as(plain, "dag mapping: delay 5.800, area 32.0"))
      << plain.output;
  EXPECT_TRUE(mapped_as(rounds, "dag mapping: delay 5.800, area 30.0"))
      << rounds.output;
}

TEST(CliMapFlags, MappingFlagsOutsideTheDagFlowAreUsageErrors) {
  // The tree and LUT flows and serve mode would ignore them.
  for (const char* args :
       {"--mapper tree --area-recovery", "--mapper tree --match extended",
        "--mapper tree --load-rounds 1", "--mapper tree --backend cuts",
        "--lut 4 --rounds 3", "--serve --backend cuts"}) {
    CliRun r = run_cli(std::string(args) + " circuit.blif");
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("apply to the dag/cuts mapping flow"),
              std::string::npos)
        << args << ": " << r.output;
  }
  // Threads and profiling are not mapping knobs: the tree flow maps.
  CliRun tree = run_cli("--mapper tree --threads 2 " + golden("mux4.blif"));
  EXPECT_EQ(tree.exit_code, 0) << tree.output;
}

TEST(CliMapFlags, KnobsTheBackendWouldIgnoreAreUsageErrors) {
  for (const char* args : {"--cut-size 3", "--cut-count 4"}) {
    CliRun r = run_cli(std::string(args) + " circuit.blif");
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find(
                  "error: cut size and cut count apply to the cuts backend"),
              std::string::npos)
        << r.output;
  }
  for (const char* args :
       {"--delay-factor 1.2", "--backend cuts --delay-factor 2"}) {
    CliRun r = run_cli(std::string(args) + " circuit.blif");
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("error: a delay factor or target applies only to "
                            "area recovery"),
              std::string::npos)
        << r.output;
  }
}

}  // namespace
}  // namespace dagmap
