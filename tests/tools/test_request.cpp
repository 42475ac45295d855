// The request field table (libcache/request.hpp) against its two
// parsers and its documentation: tools/README.md has a row for every
// field, spelled as the table spells the flag and opening with the
// field's doc line, and every request flag of that README table parses.
// The supergate depth has one range on both entry points, and
// --threads is capped.  The CLI cases point at a circuit that does not
// exist, so a build that accepted a bad value would fail on the missing
// file instead of generating supergates or starting threads.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "libcache/json.hpp"
#include "libcache/request.hpp"
#include "libcache/serve.hpp"

namespace dagmap {
namespace {

using libcache::JsonValue;
using libcache::json_quote;
using libcache::parse_json;

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

const std::string kNoCircuit = "no_such_circuit.blif";

/// The first backticked spelling of each row of the dagmap_cli flag
/// table in tools/README.md, with `\|` unescaped, and the row text.
std::vector<std::pair<std::string, std::string>> readme_rows() {
  std::ifstream in(std::string(DAGMAP_SOURCE_DIR) + "/tools/README.md");
  EXPECT_TRUE(in.good()) << "missing tools/README.md";
  std::vector<std::pair<std::string, std::string>> rows;
  std::string line;
  bool in_cli_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0)
      in_cli_section = line.rfind("## dagmap_cli", 0) == 0;
    if (!in_cli_section || line.rfind("| `--", 0) != 0) continue;
    std::size_t end = line.find('`', 3);
    std::string spelling = line.substr(3, end - 3);
    for (std::size_t p; (p = spelling.find("\\|")) != std::string::npos;)
      spelling.erase(p, 1);
    rows.emplace_back(spelling, line);
  }
  return rows;
}

TEST(RequestTable, EveryFieldHasAReadmeRowOpeningWithItsDoc) {
  std::vector<std::pair<std::string, std::string>> rows = readme_rows();
  for (const RequestField& f : request_fields()) {
    SCOPED_TRACE(f.name);
    std::string spelling = cli_spelling(f);
    bool found = false;
    for (const auto& [readme, line] : rows) {
      if (readme != spelling) continue;
      found = true;
      std::size_t cell = line.find("` | ");
      ASSERT_NE(cell, std::string::npos) << line;
      EXPECT_EQ(line.substr(line.find(" | ", cell) + 3, f.doc.size()), f.doc)
          << line;
    }
    EXPECT_TRUE(found) << "no tools/README.md row `" << spelling << "`";
  }
}

TEST(RequestTable, EveryReadmeRequestFlagParses) {
  std::size_t request_rows = 0;
  for (const auto& [spelling, line] : readme_rows()) {
    for (const RequestField& f : request_fields()) {
      std::string flag = cli_flag(f);
      if (spelling != flag && spelling.rfind(flag + " ", 0) != 0 &&
          spelling.rfind(flag + "[", 0) != 0)
        continue;
      SCOPED_TRACE(spelling);
      ++request_rows;
      // The bare flag when it has a meaning, else the flag with the
      // first value its range names; both forms of a value flag.
      std::string range(f.range);
      std::string value = range.substr(0, range.find_first_of(".|,"));
      std::vector<std::vector<std::string>> forms;
      if (!f.bare.empty() || f.type == FieldType::Flag) forms.push_back({flag});
      if (f.type != FieldType::Flag) forms.push_back({flag + "=" + value});
      if (f.bare.empty() && f.type != FieldType::Flag)
        forms.push_back({flag, value});
      for (std::vector<std::string> argv : forms) {
        std::vector<char*> args;
        for (std::string& a : argv) args.push_back(a.data());
        MapRequest req;
        std::string error;
        int i = 0;
        EXPECT_TRUE(parse_request_flag(static_cast<int>(args.size()),
                                       args.data(), i, MapRequest{}, req,
                                       error));
        EXPECT_EQ(error, "");
        EXPECT_EQ(i + 1, static_cast<int>(args.size()));
      }
    }
  }
  EXPECT_EQ(request_rows, request_fields().size());
}

TEST(RequestTable, NoFlagOnlyForTheDefaultOnVerify) {
  // --no-verify turns off the CLI's default; no other --no- flag exists.
  CliRun verify = run_cli("--no-verify " + kNoCircuit);
  EXPECT_EQ(verify.exit_code, 1) << verify.output;  // the missing file
  for (const char* flag : {"--no-area-recovery", "--no-profile"}) {
    CliRun r = run_cli(std::string(flag) + " " + kNoCircuit);
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find(std::string("error: unknown option ") + flag),
              std::string::npos)
        << r.output;
  }
}

TEST(SupergateDepth, CliTakesIntegersUpToTheRange) {
  CliRun deep = run_cli("--supergates=9 " + kNoCircuit);
  EXPECT_EQ(deep.exit_code, 2) << deep.output;
  EXPECT_NE(deep.output.find("error: bad supergate depth 9 (want 0..8)"),
            std::string::npos)
      << deep.output;
  CliRun fraction = run_cli("--supergates=1.5 " + kNoCircuit);
  EXPECT_EQ(fraction.exit_code, 2) << fraction.output;
  EXPECT_NE(fraction.output.find("error: bad --supergates value `1.5`"),
            std::string::npos)
      << fraction.output;
}

std::string serve_error(const std::string& options) {
  std::istringstream in("{\"circuit\": " +
                        json_quote(".model m\n.inputs a\n.outputs o\n"
                                   ".names a o\n0 1\n.end\n") +
                        ", \"library\": \"no_such.genlib\", \"options\": {" +
                        options + "}}\n");
  std::ostringstream out;
  ServeOptions sopt;
  sopt.num_threads = 1;
  sopt.auto_save = false;
  run_serve(in, out, sopt);
  JsonValue r = parse_json(out.str().substr(0, out.str().find('\n')));
  EXPECT_FALSE(r.get_bool("ok", true)) << out.str();
  return r.get_string("error");
}

TEST(SupergateDepth, ServeTakesIntegersUpToTheRange) {
  // Both fail before the registry looks for the library.
  EXPECT_EQ(serve_error("\"supergates\": 1.5"),
            "bad \"supergates\" value (want 0..8)");
  EXPECT_EQ(serve_error("\"supergates\": 9"),
            "bad supergate depth 9 (want 0..8)");
  EXPECT_EQ(serve_error("\"supergates\": 8"),
            "cannot read library no_such.genlib");
}

TEST(Threads, CappedInBothCliModes) {
  for (const char* mode : {"", "--serve "}) {
    CliRun r = run_cli(std::string(mode) + "--threads 100000 " + kNoCircuit);
    EXPECT_EQ(r.exit_code, 2) << mode;
    EXPECT_NE(r.output.find("error: bad --threads value `100000`"),
              std::string::npos)
        << mode << r.output;
  }
  // The cap itself parses; the run then fails on the missing circuit
  // before any worker starts.
  CliRun cap = run_cli("--threads 256 " + kNoCircuit);
  EXPECT_EQ(cap.exit_code, 1) << cap.output;
}

}  // namespace
}  // namespace dagmap
