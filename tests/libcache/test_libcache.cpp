// Compiled-library cache: the artifact contract, test-first.
//
// The contract under test (libcache/compiled_library.hpp):
//   1. Transparency — a cache-loaded library is bit-identical to the
//      fresh-parsed one in every downstream artifact: arrival labels,
//      optimal delay, mapped BLIF bytes and structural hash, at 1/2/8
//      labeling threads, over the whole golden corpus, base and
//      supergate-augmented.
//   2. Byte stability — save -> load -> save reproduces the artifact
//      byte-for-byte.
//   3. Adversarial loading — truncation at every 64-byte boundary,
//      flipped magic/version bytes, corrupted checksums and hostile
//      oversized counts all yield a clean error result: no crash, no
//      exception, no partially populated library.  (This binary carries
//      the `asan` CTest label: configure with -DDAGMAP_SANITIZE=address
//      to run the loader under AddressSanitizer.)
//   4. Invalidation — a content change to the genlib source and an
//      option change each reject the stale artifact via the content
//      hash, and regenerating (the --save-lib path) heals it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/libraries.hpp"
#include "io/genlib.hpp"
#include "io/blif.hpp"
#include "libcache/binio.hpp"
#include "libcache/compiled_library.hpp"
#include "libcache/registry.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"

namespace dagmap {
namespace {

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

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << text;
}

std::vector<std::string> corpus_stems() {
  std::vector<std::string> stems;
  std::ifstream in(data_path("golden.expect"));
  EXPECT_TRUE(in.good());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find(' '));
    std::string stem = name.substr(0, name.find('+'));
    if (std::find(stems.begin(), stems.end(), stem) == stems.end())
      stems.push_back(stem);
  }
  return stems;
}

/// Every downstream artifact the transparency contract covers.
struct MapFingerprint {
  std::vector<double> labels;
  double delay = 0.0;
  std::string blif;
  std::uint64_t structural_hash = 0;

  bool operator==(const MapFingerprint&) const = default;
};

MapFingerprint fingerprint(const Network& subject, const GateLibrary& lib,
                           const PatternIndex* index, unsigned threads) {
  DagMapOptions mopt;
  mopt.num_threads = threads;
  mopt.pattern_index = index;
  MapResult r = dag_map(subject, lib, mopt);
  return MapFingerprint{std::move(r.label), r.optimal_delay,
                        write_mapped_blif(r.netlist),
                        r.netlist.structural_hash()};
}

void expect_clean_failure(const LibraryLoadResult& r, const std::string& ctx) {
  EXPECT_FALSE(r.ok) << ctx;
  EXPECT_FALSE(r.error.empty()) << ctx;
  // Never a partially populated bundle.
  EXPECT_EQ(r.lib.library.size(), 0u) << ctx;
  EXPECT_TRUE(r.lib.gates.empty()) << ctx;
  EXPECT_EQ(r.lib.index.size(), 0u) << ctx;
}

// ---- 1 + 2: transparency and byte stability -------------------------------

class LibCacheRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(LibCacheRoundTrip, GoldenCorpusBitIdenticalAt1_2_8Threads) {
  unsigned depth = GetParam();  // 0 = base library, 2 = --supergates
  for (const std::string& stem : corpus_stems()) {
    SCOPED_TRACE(stem + (depth ? "+supergates" : ""));
    std::string genlib_text = slurp(data_path(stem + ".genlib"));
    LibCompileOptions copt;
    copt.supergate_depth = depth;

    CompiledLibrary fresh = compile_library(genlib_text, copt, stem);
    std::string bytes = serialize_compiled_library(fresh);
    LibraryLoadResult loaded = deserialize_compiled_library(bytes);
    ASSERT_TRUE(loaded.ok) << loaded.error;

    // Byte stability: save -> load -> save.
    EXPECT_EQ(serialize_compiled_library(loaded.lib), bytes);

    // The loaded bundle advertises the same provenance.
    EXPECT_EQ(loaded.lib.source_hash,
              library_content_hash(genlib_text, copt));
    ASSERT_EQ(loaded.lib.library.size(), fresh.library.size());
    EXPECT_EQ(loaded.lib.index.size(), fresh.index.size());
    EXPECT_EQ(loaded.lib.npn_class_of, fresh.npn_class_of);

    Network circuit = parse_blif(slurp(data_path(stem + ".blif")));
    Network subject = tech_decompose(circuit);
    MapFingerprint want = fingerprint(subject, fresh.library, &fresh.index, 1);
    // The compiled path must also match the historical per-call path
    // (no pattern index passed, index built inside the Matcher).
    EXPECT_EQ(fingerprint(subject, fresh.library, nullptr, 1), want);
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(
          fingerprint(subject, loaded.lib.library, &loaded.lib.index, threads),
          want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BaseAndSupergates, LibCacheRoundTrip,
                         ::testing::Values(0u, 2u),
                         [](const auto& info) {
                           return info.param == 0 ? "base" : "supergates2";
                         });

// FNV-1a-64 of whole artifacts (library name "x"), recorded before the
// ISOP moved to word-parallel scratch arithmetic.  The patterns, the
// pattern index and every other byte must stay exactly as they were,
// so existing .dmlc files stay valid without a format version bump.
TEST(LibCacheBytes, CompiledLibrariesMatchRecordedFingerprints) {
  auto fingerprint = [](const std::string& text) {
    return libcache::fnv1a64(
        serialize_compiled_library(compile_library(text, {}, "x")));
  };
  EXPECT_EQ(fingerprint(write_genlib(make_44_genlib(1))), 0x27b71fbbc3d7f1d9ull);
  EXPECT_EQ(fingerprint(write_genlib(make_44_genlib(2))), 0x3484e06e6188848bull);
  EXPECT_EQ(fingerprint(write_genlib(make_44_genlib(3))), 0x23012eb25d27fe6full);
  EXPECT_EQ(fingerprint(lib2_genlib_text()), 0xb098844a2140e002ull);
  EXPECT_EQ(fingerprint(make_random_genlib(7, 20, 6)), 0x7a857f29c20412b4ull);
  EXPECT_EQ(fingerprint(make_random_genlib(42, 20, 6)), 0x8e17f3b7ae0d3e2dull);
  EXPECT_EQ(fingerprint(make_random_genlib(1234, 20, 6, /*multi_level=*/true)),
            0x0055bf2d8667bf12ull);
}

TEST(LibCacheFile, SaveThenLoadRoundTripsThroughDisk) {
  std::string genlib_text = slurp(data_path("full_adder.genlib"));
  CompiledLibrary fresh = compile_library(genlib_text, {}, "full_adder");
  std::string path = ::testing::TempDir() + "libcache_roundtrip.dmlc";
  save_compiled_library_file(fresh, path);
  LibraryLoadResult loaded = load_compiled_library_file(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(serialize_compiled_library(loaded.lib),
            serialize_compiled_library(fresh));
  std::remove(path.c_str());
}

TEST(LibCacheFile, MissingFileIsACleanError) {
  LibraryLoadResult r =
      load_compiled_library_file(::testing::TempDir() + "does_not_exist.dmlc");
  expect_clean_failure(r, "missing file");
  EXPECT_NE(r.error.find("cannot open"), std::string::npos) << r.error;
}

// ---- 3: adversarial loading ----------------------------------------------

std::string golden_artifact(unsigned depth = 0) {
  LibCompileOptions copt;
  copt.supergate_depth = depth;
  return serialize_compiled_library(
      compile_library(slurp(data_path("full_adder.genlib")), copt, "fa"));
}

TEST(LibCacheLoader, TruncationAtEvery64ByteBoundaryFailsCleanly) {
  std::string bytes = golden_artifact();
  ASSERT_GT(bytes.size(), 128u);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 64) {
    LibraryLoadResult r = deserialize_compiled_library(bytes.substr(0, cut));
    expect_clean_failure(r, "truncated at " + std::to_string(cut));
  }
  // One byte short of complete is still truncation.
  expect_clean_failure(
      deserialize_compiled_library(bytes.substr(0, bytes.size() - 1)),
      "truncated at size-1");
  // And the empty buffer.
  expect_clean_failure(deserialize_compiled_library(""), "empty buffer");
}

TEST(LibCacheLoader, FlippedMagicIsRejected) {
  std::string bytes = golden_artifact();
  for (std::size_t i = 0; i < 4; ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x20;
    LibraryLoadResult r = deserialize_compiled_library(corrupt);
    expect_clean_failure(r, "magic byte " + std::to_string(i));
    EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
  }
}

TEST(LibCacheLoader, UnsupportedVersionIsRejected) {
  std::string bytes = golden_artifact();
  std::string corrupt = bytes;
  corrupt[4] = static_cast<char>(kLibCacheVersion + 1);  // little-endian u32
  LibraryLoadResult r = deserialize_compiled_library(corrupt);
  expect_clean_failure(r, "bumped version");
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
}

TEST(LibCacheLoader, CorruptedPayloadFailsTheChecksum) {
  std::string bytes = golden_artifact();
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8;
  for (std::size_t pos : {kHeader, kHeader + 100, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x01;
    LibraryLoadResult r = deserialize_compiled_library(corrupt);
    expect_clean_failure(r, "payload flip at " + std::to_string(pos));
    EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
  }
}

TEST(LibCacheLoader, EveryByteFlipOnASmallArtifactIsRejected) {
  // The FNV-1a integrity hash makes single-byte corruption detection
  // exact, not probabilistic: every payload flip changes the hash, and
  // every header flip breaks magic/version/size/hash validation.  Walk
  // the whole artifact to prove there is no blind spot.
  std::string bytes =
      serialize_compiled_library(compile_library(slurp(
          data_path("mux4.genlib")), {}, "mux4"));
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x01;
    EXPECT_FALSE(deserialize_compiled_library(corrupt).ok)
        << "flip at byte " << pos << " of " << bytes.size() << " accepted";
  }
}

TEST(LibCacheLoader, HostileOversizedCountIsRejectedBeforeAllocation) {
  // Craft an artifact whose header and checksum are VALID but whose gate
  // count claims ~2^64 entries: the loader must reject on the
  // count-vs-remaining-bytes check, never attempt the allocation.
  libcache::ByteWriter payload;
  payload.u64(0);                       // source_hash
  payload.u32(0); payload.u32(4); payload.u32(3); payload.u32(4);  // options
  payload.f64(0.0);
  payload.u64(2000000);
  payload.str("hostile");
  payload.u64(0xFFFFFFFFFFFFFFFFull);   // genlib gate count
  libcache::ByteWriter artifact;
  artifact.u8('D'); artifact.u8('M'); artifact.u8('L'); artifact.u8('C');
  artifact.u32(kLibCacheVersion);
  artifact.u64(payload.size());
  artifact.u64(libcache::fnv1a64(payload.data()));
  std::string bytes = artifact.take() + payload.data();

  LibraryLoadResult r = deserialize_compiled_library(bytes);
  expect_clean_failure(r, "hostile count");
  EXPECT_NE(r.error.find("oversized"), std::string::npos) << r.error;
}

TEST(LibCacheLoader, OversizedStringLengthIsRejectedBeforeAllocation) {
  libcache::ByteWriter payload;
  payload.u64(0);
  payload.u32(0); payload.u32(4); payload.u32(3); payload.u32(4);
  payload.f64(0.0);
  payload.u64(2000000);
  payload.u64(0x7FFFFFFFFFFFFFFFull);   // name length, no bytes behind it
  libcache::ByteWriter artifact;
  artifact.u8('D'); artifact.u8('M'); artifact.u8('L'); artifact.u8('C');
  artifact.u32(kLibCacheVersion);
  artifact.u64(payload.size());
  artifact.u64(libcache::fnv1a64(payload.data()));
  std::string bytes = artifact.take() + payload.data();

  LibraryLoadResult r = deserialize_compiled_library(bytes);
  expect_clean_failure(r, "hostile string length");
  EXPECT_NE(r.error.find("oversized"), std::string::npos) << r.error;
}

TEST(LibCacheLoader, TrailingGarbageAfterPayloadIsRejected) {
  std::string bytes = golden_artifact();
  // Appending bytes breaks the header's payload_size accounting.
  expect_clean_failure(deserialize_compiled_library(bytes + "x"),
                       "trailing byte");
}

// ---- 4: content-hash invalidation ----------------------------------------

TEST(LibCacheStale, GenlibContentChangeInvalidatesTheArtifact) {
  std::string dir = ::testing::TempDir();
  std::string genlib_path = dir + "stale_content.genlib";
  std::string original = slurp(data_path("full_adder.genlib"));
  spit(genlib_path, original);

  // First lookup compiles and saves the sidecar.
  LibraryRegistry reg1;
  LibraryRegistry::Result r1 = reg1.get(genlib_path, {});
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r1.source, "compiled");
  EXPECT_EQ(reg1.stats().saves, 1u);

  // A fresh registry (new process) with unchanged source loads the
  // artifact instead of compiling.
  LibraryRegistry reg2;
  LibraryRegistry::Result r2 = reg2.get(genlib_path, {});
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r2.source, "artifact");
  EXPECT_EQ(reg2.stats().compiles, 0u);

  // Touch the genlib CONTENT (a comment changes the bytes, so the
  // content hash — freshness is about bytes, not semantics).
  spit(genlib_path, original + "\n# retuned\n");
  LibraryRegistry reg3;
  LibraryRegistry::Result r3 = reg3.get(genlib_path, {});
  ASSERT_TRUE(r3.ok()) << r3.error;
  EXPECT_EQ(r3.source, "compiled");  // stale artifact NOT used
  EXPECT_EQ(reg3.stats().artifact_rejects, 1u);
  EXPECT_EQ(reg3.stats().compiles, 1u);

  // The recompile re-saved the sidecar (--save-lib regeneration path):
  // the next process accepts it again.
  LibraryRegistry reg4;
  LibraryRegistry::Result r4 = reg4.get(genlib_path, {});
  ASSERT_TRUE(r4.ok()) << r4.error;
  EXPECT_EQ(r4.source, "artifact");

  std::remove(genlib_path.c_str());
  std::remove(LibraryRegistry::artifact_path(genlib_path).c_str());
}

TEST(LibCacheStale, OptionChangeInvalidatesIndependentlyOfContent) {
  std::string text = slurp(data_path("full_adder.genlib"));
  CompiledLibrary base = compile_library(text, {}, "fa");

  // Same text, same options: fresh.
  EXPECT_TRUE(validate_compiled_library(base, text, {}));

  // Same text, different generation options: stale, and the reason says
  // so.
  LibCompileOptions sg;
  sg.supergate_depth = 2;
  std::string why;
  EXPECT_FALSE(validate_compiled_library(base, text, sg, &why));
  EXPECT_NE(why.find("options"), std::string::npos) << why;

  // Different text, same options: stale with the other reason.
  EXPECT_FALSE(validate_compiled_library(base, text + " ", {}, &why));
  EXPECT_NE(why.find("source"), std::string::npos) << why;

  // num_threads is NOT part of the key: generation is thread-invariant,
  // so a thread-count change must not invalidate.
  LibCompileOptions threads_only;
  threads_only.num_threads = 8;
  EXPECT_TRUE(validate_compiled_library(base, text, threads_only));
}

TEST(LibCacheStale, RegistryKeysOptionVariantsSeparately) {
  std::string dir = ::testing::TempDir();
  std::string genlib_path = dir + "stale_options.genlib";
  spit(genlib_path, slurp(data_path("mux4.genlib")));

  LibraryRegistry reg(LibraryRegistry::Options{.capacity = 4,
                                               .auto_save = false});
  LibCompileOptions sg;
  sg.supergate_depth = 2;
  LibraryRegistry::Result base = reg.get(genlib_path, {});
  LibraryRegistry::Result aug = reg.get(genlib_path, sg);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_TRUE(aug.ok()) << aug.error;
  EXPECT_NE(base.lib.get(), aug.lib.get());
  EXPECT_GE(aug.lib->library.size(), base.lib->library.size());
  EXPECT_EQ(reg.size(), 2u);
  // Both stay resident and hit.
  EXPECT_EQ(reg.get(genlib_path, {}).source, "memory");
  EXPECT_EQ(reg.get(genlib_path, sg).source, "memory");
  EXPECT_EQ(reg.stats().hits, 2u);

  std::remove(genlib_path.c_str());
}

TEST(LibCacheRegistry, LruBoundsResidency) {
  std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (const char* stem : {"full_adder", "mux4", "gray3"}) {
    std::string p = dir + "lru_" + stem + ".genlib";
    spit(p, slurp(data_path(std::string(stem) + ".genlib")));
    paths.push_back(p);
  }

  LibraryRegistry reg(LibraryRegistry::Options{.capacity = 2,
                                               .auto_save = false});
  for (const std::string& p : paths) ASSERT_TRUE(reg.get(p, {}).ok());
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.stats().evictions, 1u);
  // The evicted first library recompiles; the recent two still hit.
  EXPECT_EQ(reg.get(paths[2], {}).source, "memory");
  EXPECT_EQ(reg.get(paths[0], {}).source, "compiled");

  for (const std::string& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace dagmap
