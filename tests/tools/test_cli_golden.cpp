// dagmap_cli output pinned on the golden corpus: for every corpus pair
// under every mapping option family, the CLI's stdout and its --out
// BLIF bytes must equal the sections recorded in
// tests/data/golden/cli.expect.  Only the printed seconds ("0.05s)")
// are masked.  Each run also goes through run_serve as a JSONL request
// with the same options, and serve's "blif" member must be the CLI's
// --out bytes.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "libcache/json.hpp"
#include "libcache/serve.hpp"

namespace dagmap {
namespace {

namespace fs = std::filesystem;
using libcache::JsonValue;
using libcache::json_quote;
using libcache::parse_json;

struct Family {
  const char* name;
  const char* flags;    ///< dagmap_cli flags
  const char* options;  ///< the same options as serve "options" members
};

constexpr Family kFamilies[] = {
    {"default", "", ""},
    {"match_extended", "--match extended", "\"match\": \"extended\""},
    {"area_recovery", "--area-recovery", "\"area_recovery\": true"},
    {"cuts", "--backend cuts", "\"backend\": \"cuts\""},
    {"cuts_rounds", "--backend cuts --rounds 3 --delay-factor 1.2",
     "\"backend\": \"cuts\", \"rounds\": 3, \"delay_factor\": 1.2"},
    {"load_rounds", "--load-rounds 2", "\"load_rounds\": 2"},
    {"choices", "--choices", "\"choices\": true"},
    {"supergates", "--supergates", "\"supergates\": 2"},
};

constexpr const char* kCircuits[] = {"decoder2", "full_adder", "gray3",
                                     "majxor",   "mux4",       "parity5"};

struct Case {
  const char* circuit;
  Family family;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.circuit << " " << c.family.name;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The recorded sections of cli.expect, keyed by "<circuit> <family>":
/// (stdout, BLIF bytes).
const std::map<std::string, std::pair<std::string, std::string>>& expected() {
  static const auto sections = [] {
    std::map<std::string, std::pair<std::string, std::string>> out;
    std::ifstream in(std::string(DAGMAP_TEST_DATA_DIR) + "/golden/cli.expect");
    EXPECT_TRUE(in.good()) << "missing tests/data/golden/cli.expect";
    std::string line, key;
    std::string* into = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("=== ", 0) == 0) {
        key = line.substr(4);
        into = &out[key].first;
      } else if (line == "--- blif" && !key.empty()) {
        into = &out[key].second;
      } else if (into != nullptr) {
        *into += line + "\n";
      }
    }
    return out;
  }();
  return sections;
}

/// A directory of its own per case (ctest runs cases concurrently)
/// holding the corpus pair, so the CLI runs on relative paths and its
/// stdout carries no machine-specific directory.
fs::path stage(const Case& c) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("cli_golden_" + std::string(c.circuit) + "_" + c.family.name);
  fs::create_directories(dir);
  fs::path golden = fs::path(DAGMAP_TEST_DATA_DIR) / "golden";
  for (const char* ext : {".blif", ".genlib"})
    fs::copy_file(golden / (std::string(c.circuit) + ext),
                  dir / (std::string(c.circuit) + ext),
                  fs::copy_options::overwrite_existing);
  return dir;
}

struct CliRun {
  int exit_code = -1;
  std::string out;   ///< stdout, seconds masked
  std::string blif;  ///< the --out file
};

CliRun run_cli(const Case& c, const fs::path& dir) {
  std::string stem = c.circuit;
  std::string cmd = "cd '" + dir.string() + "' && '" + DAGMAP_CLI_PATH +
                    "' --library " + stem + ".genlib " + c.family.flags +
                    " --out " + stem + ".out.blif " + stem + ".blif";
  CliRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.out += buf;
  int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  static const std::regex seconds("[0-9]+\\.[0-9]{2}s\\)");
  r.out = std::regex_replace(r.out, seconds, "#s)");
  r.blif = slurp(dir / (stem + ".out.blif"));
  return r;
}

class CliGolden : public ::testing::TestWithParam<Case> {};

TEST_P(CliGolden, StdoutAndBlifBytesMatchTheRecording) {
  const Case& c = GetParam();
  std::string key = std::string(c.circuit) + " " + c.family.name;
  auto it = expected().find(key);
  ASSERT_NE(it, expected().end()) << "no cli.expect section " << key;
  CliRun r = run_cli(c, stage(c));
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(r.out, it->second.first);
  EXPECT_EQ(r.blif, it->second.second);
}

TEST_P(CliGolden, ServeGivesTheCliBlifBytes) {
  const Case& c = GetParam();
  fs::path dir = stage(c);
  CliRun cli = run_cli(c, dir);
  ASSERT_EQ(cli.exit_code, 0) << cli.out;

  std::string options = c.family.options;
  std::istringstream in(
      "{\"circuit\": " + json_quote(slurp(dir / (std::string(c.circuit) +
                                                 ".blif"))) +
      ", \"library\": " +
      json_quote((dir / (std::string(c.circuit) + ".genlib")).string()) +
      (options.empty() ? "" : ", \"options\": {" + options + "}") + "}\n");
  std::ostringstream out;
  ServeOptions sopt;
  sopt.num_threads = 1;
  sopt.auto_save = false;
  run_serve(in, out, sopt);
  JsonValue response = parse_json(out.str().substr(0, out.str().find('\n')));
  ASSERT_TRUE(response.get_bool("ok", false)) << out.str();
  EXPECT_EQ(response.get_string("blif"), cli.blif);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* circuit : kCircuits)
    for (const Family& family : kFamilies) cases.push_back({circuit, family});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CliGolden, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.circuit) + "_" + info.param.family.name;
    });

}  // namespace
}  // namespace dagmap
