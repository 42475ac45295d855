// Serve mode: the batched JSONL loop (libcache/serve.hpp).
//
// The properties under test:
//   * N interleaved requests across two libraries, mapped concurrently
//     on the pool, each produce a result bit-identical to a solo
//     single-threaded run of the same (circuit, library) — delay, BLIF
//     bytes and structural hash;
//   * responses come back in request order, one line per request;
//   * a malformed line yields a JSON error response for that line only
//     — the daemon keeps serving everything after it;
//   * the registry serves repeat libraries from memory, and option
//     variants ("supergates") are distinct cache entries.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "io/blif.hpp"
#include "libcache/compiled_library.hpp"
#include "libcache/json.hpp"
#include "libcache/serve.hpp"
#include "mapnet/write.hpp"

namespace dagmap {
namespace {

using libcache::JsonValue;
using libcache::json_quote;
using libcache::parse_json;

std::string data_path(const std::string& rel) {
  return std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Copies a corpus genlib into the gtest temp dir so auto-saved sidecar
/// artifacts never land in the source tree.
std::string stage_genlib(const std::string& stem) {
  std::string path = ::testing::TempDir() + "serve_" + stem + ".genlib";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.good());
  out << slurp(data_path(stem + ".genlib"));
  return path;
}

std::string request_line(const std::string& circuit_text,
                         const std::string& library_path,
                         const std::string& extra_options = "") {
  return "{\"circuit\": " + json_quote(circuit_text) +
         ", \"library\": " + json_quote(library_path) +
         (extra_options.empty() ? "" : ", \"options\": {" + extra_options + "}") +
         "}";
}

/// What a solo single-threaded run of (circuit, library, depth) yields.
struct SoloResult {
  double delay = 0.0;
  std::string blif;
  std::string structural_hash;
};

SoloResult solo_map(const std::string& circuit_text,
                    const std::string& genlib_path, unsigned depth = 0) {
  LibCompileOptions copt;
  copt.supergate_depth = depth;
  CompiledLibrary clib =
      compile_library(slurp(genlib_path), copt, genlib_path);
  Network circuit = parse_blif(circuit_text);
  Network subject = tech_decompose(circuit);
  DagMapOptions mopt;
  mopt.num_threads = 1;
  mopt.pattern_index = &clib.index;
  MapResult r = dag_map(subject, clib.library, mopt);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(r.netlist.structural_hash()));
  return SoloResult{r.optimal_delay, write_mapped_blif(r.netlist), buf};
}

std::vector<JsonValue> run_and_parse(const std::string& input,
                                     const ServeOptions& options,
                                     ServeSummary* summary = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeSummary s = run_serve(in, out, options);
  if (summary) *summary = s;
  std::vector<JsonValue> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) responses.push_back(parse_json(line));
  return responses;
}

TEST(Serve, InterleavedRequestsAcrossTwoLibrariesMatchSoloRuns) {
  std::string lib_a = stage_genlib("full_adder");
  std::string lib_b = stage_genlib("mux4");
  std::string circ_a = slurp(data_path("full_adder.blif"));
  std::string circ_b = slurp(data_path("mux4.blif"));

  // Twelve interleaved requests: A, B, A+supergates, B, repeated — two
  // libraries resident at once, three distinct cache entries.
  struct Case {
    const std::string* circuit;
    const std::string* library;
    unsigned depth;
  };
  std::vector<Case> cases;
  for (int rep = 0; rep < 4; ++rep) {
    cases.push_back({&circ_a, &lib_a, 0});
    cases.push_back({&circ_b, &lib_b, 0});
    cases.push_back({&circ_a, &lib_a, 2});
  }
  std::string input;
  for (const Case& c : cases)
    input += request_line(*c.circuit, *c.library,
                          c.depth ? "\"supergates\": 2" : "") + "\n";

  ServeOptions sopt;
  sopt.num_threads = 8;   // concurrent mapping on the pool
  sopt.max_batch = 5;     // force several multi-request batches
  sopt.auto_save = false;
  ServeSummary summary;
  std::vector<JsonValue> responses = run_and_parse(input, sopt, &summary);
  ASSERT_EQ(responses.size(), cases.size());
  EXPECT_EQ(summary.requests, cases.size());
  EXPECT_EQ(summary.errors, 0u);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const JsonValue& r = responses[i];
    EXPECT_TRUE(r.get_bool("ok"));
    // In-order delivery: ids are the request sequence numbers.
    EXPECT_EQ(r.get_number("id", -1), static_cast<double>(i));
    SoloResult solo =
        solo_map(*cases[i].circuit, *cases[i].library, cases[i].depth);
    EXPECT_EQ(r.get_number("delay"), solo.delay);
    EXPECT_EQ(r.get_string("blif"), solo.blif);
    EXPECT_EQ(r.get_string("structural_hash"), solo.structural_hash);
  }

  // Three distinct cache entries compiled once each; repeats hit memory.
  EXPECT_EQ(summary.registry.compiles, 3u);
  EXPECT_EQ(summary.registry.hits, cases.size() - 3u);
}

TEST(Serve, MalformedLineYieldsErrorAndTheDaemonSurvives) {
  std::string lib = stage_genlib("gray3");
  std::string circ = slurp(data_path("gray3.blif"));
  std::string input = request_line(circ, lib) + "\n" +
                      "this is not JSON\n" +
                      "{\"circuit\": 42, \"library\": " + json_quote(lib) +
                      "}\n" +
                      "{\"circuit\": \"not blif\", \"library\": " +
                      json_quote(lib) + "}\n" +
                      request_line(circ, lib) + "\n";

  ServeOptions sopt;
  sopt.auto_save = false;
  ServeSummary summary;
  std::vector<JsonValue> responses = run_and_parse(input, sopt, &summary);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(summary.errors, 3u);

  EXPECT_TRUE(responses[0].get_bool("ok"));
  EXPECT_FALSE(responses[1].get_bool("ok", true));
  EXPECT_NE(responses[1].get_string("error"), "");
  EXPECT_FALSE(responses[2].get_bool("ok", true));  // circuit not a string
  EXPECT_FALSE(responses[3].get_bool("ok", true));  // BLIF parse failure
  // The daemon finished the stream: the last request still mapped, and
  // identically to the first.
  EXPECT_TRUE(responses[4].get_bool("ok"));
  EXPECT_EQ(responses[4].get_string("blif"), responses[0].get_string("blif"));
  EXPECT_EQ(responses[4].get_number("id", -1), 4.0);
}

TEST(Serve, UnknownLibraryPathIsAPerRequestError) {
  std::string circ = slurp(data_path("mux4.blif"));
  std::string input =
      request_line(circ, ::testing::TempDir() + "no_such.genlib") + "\n";
  ServeOptions sopt;
  sopt.auto_save = false;
  std::vector<JsonValue> responses = run_and_parse(input, sopt);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].get_bool("ok", true));
  EXPECT_NE(responses[0].get_string("error").find("cannot read"),
            std::string::npos);
}

TEST(Serve, MissingLibraryFallsBackToTheServerDefault) {
  std::string lib = stage_genlib("decoder2");
  std::string circ = slurp(data_path("decoder2.blif"));
  std::string input = "{\"circuit\": " + json_quote(circ) + "}\n";

  ServeOptions with_default;
  with_default.default_library = lib;
  with_default.auto_save = false;
  std::vector<JsonValue> ok = run_and_parse(input, with_default);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].get_bool("ok"));

  ServeOptions without_default;
  without_default.auto_save = false;
  std::vector<JsonValue> err = run_and_parse(input, without_default);
  ASSERT_EQ(err.size(), 1u);
  EXPECT_FALSE(err[0].get_bool("ok", true));
  EXPECT_NE(err[0].get_string("error").find("library"), std::string::npos);
}

TEST(Serve, RepeatLibraryRequestsServeFromMemory) {
  std::string lib = stage_genlib("parity5");
  std::string circ = slurp(data_path("parity5.blif"));
  std::string input;
  for (int i = 0; i < 3; ++i) input += request_line(circ, lib) + "\n";

  ServeOptions sopt;
  sopt.auto_save = false;
  std::vector<JsonValue> responses = run_and_parse(input, sopt);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].get_string("cache"), "compiled");
  EXPECT_EQ(responses[1].get_string("cache"), "memory");
  EXPECT_EQ(responses[2].get_string("cache"), "memory");
}

TEST(Serve, VerifyOptionRunsTheEquivalenceCheck) {
  std::string lib = stage_genlib("majxor");
  std::string circ = slurp(data_path("majxor.blif"));
  std::string input = request_line(circ, lib, "\"verify\": true") + "\n";
  ServeOptions sopt;
  sopt.auto_save = false;
  std::vector<JsonValue> responses = run_and_parse(input, sopt);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].get_bool("ok"));
  EXPECT_TRUE(responses[0].get_bool("verified"));
}

TEST(Serve, OutOfRangeOptionsAreErrorLinesAndTheNextRequestMaps) {
  // Every mapping option passes validate_map_options (the range check the
  // CLI shares); each bad request gets its own error line, and the next
  // request still maps, identically to the first.
  std::string lib = stage_genlib("full_adder");
  std::string circ = slurp(data_path("full_adder.blif"));
  const char* bad[] = {
      "\"backend\": \"cuts\", \"cut_size\": 5",
      "\"backend\": \"cuts\", \"cut_count\": 65",
      "\"backend\": \"cuts\", \"cut_count\": 0",
      "\"rounds\": 17",
      "\"rounds\": 0",
      "\"rounds\": 1e12",
      "\"load_rounds\": 17",
      "\"load_rounds\": -1",
      "\"rounds\": 2, \"delay_factor\": 101",
      "\"rounds\": 2, \"delay_factor\": 0.5",
  };
  std::string input;
  for (const char* options : bad)
    input += request_line(circ, lib, options) + "\n" +
             request_line(circ, lib) + "\n";

  ServeOptions sopt;
  sopt.auto_save = false;
  ServeSummary summary;
  std::vector<JsonValue> responses = run_and_parse(input, sopt, &summary);
  ASSERT_EQ(responses.size(), 2 * std::size(bad));
  EXPECT_EQ(summary.errors, std::size(bad));
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    SCOPED_TRACE(bad[i]);
    const JsonValue& err = responses[2 * i];
    EXPECT_FALSE(err.get_bool("ok", true));
    EXPECT_EQ(err.get_string("error").rfind("bad ", 0), 0u)
        << err.get_string("error");
    const JsonValue& next = responses[2 * i + 1];
    EXPECT_TRUE(next.get_bool("ok"));
    EXPECT_EQ(next.get_string("blif"), responses[1].get_string("blif"));
  }
}

TEST(Serve, NoMappingOptionIsSilentlyIgnored) {
  // Each option either acts on both backends or is an error line.
  std::string lib = stage_genlib("full_adder");
  std::string circ = slurp(data_path("full_adder.blif"));
  const char* requests[] = {
      "\"backend\": \"cuts\"",
      "\"backend\": \"cuts\", \"area_recovery\": true, "
      "\"delay_factor\": 1.2",
      "\"backend\": \"structural\"",
      "\"backend\": \"structural\", \"rounds\": 3, "
      "\"delay_factor\": 1.2",
      "\"cut_count\": 4",
      "\"backend\": \"cuts\", \"delay_factor\": 1.2",
      "\"round\": 3",
  };
  std::string input;
  for (const char* options : requests)
    input += request_line(circ, lib, options) + "\n";
  ServeOptions sopt;
  sopt.auto_save = false;
  std::vector<JsonValue> r = run_and_parse(input, sopt);
  ASSERT_EQ(r.size(), std::size(requests));
  // Area recovery on the cut backend, area rounds on the structural one.
  EXPECT_EQ(r[0].get_number("area"), 32.0);
  EXPECT_EQ(r[1].get_number("area"), 28.0);
  EXPECT_EQ(r[2].get_number("area"), 32.0);
  EXPECT_EQ(r[3].get_number("area"), 30.0);
  EXPECT_EQ(r[1].get_number("delay"), r[0].get_number("delay"));
  EXPECT_EQ(r[3].get_number("delay"), r[2].get_number("delay"));
  // Cut knobs on the structural backend; a delay factor with no area
  // round to act on.
  EXPECT_EQ(r[4].get_string("error"),
            "cut size and cut count apply to the cuts backend");
  EXPECT_EQ(r[5].get_string("error"),
            "a delay factor or target applies only to area recovery "
            "(rounds > 1 or area recovery on)");
  // A misspelled option ("round") is an error, not a default mapping.
  EXPECT_EQ(r[6].get_string("error"), "unknown option \"round\"");
}

TEST(Serve, BlankLinesAreIgnored) {
  std::string lib = stage_genlib("mux4");
  std::string circ = slurp(data_path("mux4.blif"));
  std::string input = "\n  \n" + request_line(circ, lib) + "\n\n";
  ServeOptions sopt;
  sopt.auto_save = false;
  ServeSummary summary;
  std::vector<JsonValue> responses = run_and_parse(input, sopt, &summary);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(summary.requests, 1u);
}

}  // namespace
}  // namespace dagmap
