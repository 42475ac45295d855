// dagmap_cli numeric flags: every integer value goes through one
// from_chars parser, so a malformed value is a usage error (exit 2) that
// names the flag and the value, never a bare "stoul" exception.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
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
        BadFlag{"--partition=-4", "error: bad --partition value `-4`"},
        BadFlag{"--load-rounds=1.5", "error: bad --load-rounds value `1.5`"},
        BadFlag{"--load-rounds ' 2'", "error: bad --load-rounds value ` 2`"},
        BadFlag{"--buffer 0x2", "error: bad --buffer value `0x2`"},
        BadFlag{"--lut k", "error: bad --lut value `k`"}));

TEST(CliNumericFlags, WellFormedValuesParse) {
  // Every value parses, so the first complaint is the missing circuit.
  CliRun r = run_cli(
      "--threads 2 --lib44 3 --cut-size 3 --cut-count 4 --rounds 2 "
      "--supergates=1 --partition=64 --load-rounds=1 --buffer 0 --lut 0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("error: no circuit file"), std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace dagmap
