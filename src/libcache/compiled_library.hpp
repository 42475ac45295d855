// Compiled libraries: the expensive library precompute, done once.
//
// Every `dagmap` invocation historically re-parsed the genlib, rebuilt
// truth tables and pattern graphs, recomputed the signature pre-index,
// and — worst of all — regenerated supergate libraries: cost that
// dwarfs mapping time for small circuits and is pure waste under
// repeated traffic.  A `CompiledLibrary` bundles every library-derived
// artifact the mapping pipeline consumes:
//
//   * the augmented GENLIB gate list (supergate compositions
//     materialized as ordinary gates, exactly as supergate/ emits them),
//   * the built `GateLibrary` (pins, IEEE-754-exact delays/areas, truth
//     tables, pattern graphs),
//   * the library-side pattern pre-index (match/pattern_index.hpp; its
//     shape table is re-derived on load, not stored),
//   * NPN equivalence classes over the gate functions, and
//   * the supergate generation stats,
//
// and serializes the bundle to a versioned, checksummed little-endian
// artifact (ABC's `.super` files and mockturtle's cached `tech_library`
// are the precedents).  The artifact is keyed by a content hash of the
// *source* genlib text plus the generation options, so any change to
// either auto-invalidates it.
//
// Contract (enforced test-first by tests/libcache/): a cache-loaded
// library and a fresh-parsed library are bit-identical in every
// downstream artifact — arrival labels, mapped delay, BLIF bytes, and
// `MappedNetlist::structural_hash` — at any thread count; and the
// loader either returns the full bundle or a clean error (truncated,
// corrupted, or hostile artifacts can never crash it or leak a
// partially populated library).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "boolmatch/npn_index.hpp"
#include "io/genlib.hpp"
#include "library/gate_library.hpp"
#include "match/pattern_index.hpp"
#include "supergate/canon.hpp"
#include "supergate/supergate.hpp"

namespace dagmap {

/// Artifact magic ("DMLC": DagMap Library Cache) and format version.
/// Bump the version on ANY layout change — old artifacts are rejected
/// with a clean error and simply regenerated.
inline constexpr char kLibCacheMagic[4] = {'D', 'M', 'L', 'C'};
inline constexpr std::uint32_t kLibCacheVersion = 1;

/// NPN class id of gates too wide to canonicalize (> 6 inputs).
inline constexpr std::uint32_t kNoNpnClass = 0xFFFFFFFFu;

/// Generation options a compiled library is keyed by.  Everything that
/// changes the *bytes* of the compiled result belongs here (it is mixed
/// into the content hash); `num_threads` deliberately does not —
/// generation is bit-identical at any thread count.
struct LibCompileOptions {
  /// Supergate composition depth; 0 = plain library, no augmentation.
  /// N > 0 maps to SupergateOptions::max_depth = N (the CLI's
  /// --supergates=N).
  unsigned supergate_depth = 0;
  unsigned supergate_max_inputs = 4;
  unsigned supergate_max_components = 3;
  unsigned supergate_max_component_inputs = 4;
  double supergate_max_area = 0.0;
  std::uint64_t supergate_max_steps = 2000000;
  /// Worker threads for supergate generation (NOT part of the key).
  unsigned num_threads = 1;

  /// The SupergateOptions this selection corresponds to.
  SupergateOptions supergate_options() const;

  /// Hash of the key fields only (num_threads excluded).
  std::uint64_t hash() const;
};

/// Content hash an artifact is validated against: genlib source text
/// bytes mixed with the generation-option key.  Any edit to either
/// changes the hash and invalidates existing artifacts.
std::uint64_t library_content_hash(std::string_view genlib_text,
                                   const LibCompileOptions& options);

/// One NPN (<=4 inputs) / exact-function (5-6 inputs) equivalence class
/// over the library's gate functions, in first-appearance order.
struct NpnClass {
  CanonKey key;
  std::vector<std::uint32_t> gate_indices;  ///< members, in library order
};

/// The full compiled bundle.  Move-only (GateLibrary pins internal
/// pointers that copying would dangle).
struct CompiledLibrary {
  std::string name;
  /// library_content_hash(source genlib text, options).
  std::uint64_t source_hash = 0;
  LibCompileOptions options;
  /// Augmented source gates (base gates first, then materialized
  /// supergate compositions) — what write_genlib round-trips.
  std::vector<GenlibGate> gates;
  GateLibrary library;
  /// Library-side pattern pre-index, shared by every Matcher built
  /// against this library (pass as MapOptions::pattern_index).
  PatternIndex index;
  /// npn_class_of[i] = class id of library gate i (kNoNpnClass when the
  /// gate has more than 6 inputs or is constant).
  std::vector<std::uint32_t> npn_class_of;
  std::vector<NpnClass> npn_classes;
  /// Zeroed when options.supergate_depth == 0.
  SupergateStats supergate_stats;
  /// Liberty cells the reader skipped (sequential or unsupported); set
  /// by compile_library, not stored in the artifact.
  std::size_t cells_skipped = 0;
};

/// Compiles genlib text into the full bundle: parse -> (optional)
/// supergate augmentation -> GateLibrary build -> pattern index -> NPN
/// classes.  Pure function of (text, key options) — bit-identical at
/// any num_threads.  Throws ParseError/ContractError on bad input text.
CompiledLibrary compile_library(const std::string& genlib_text,
                                const LibCompileOptions& options = {},
                                std::string name = "library");

/// Serializes the bundle to artifact bytes (header + checksummed
/// payload; see DESIGN.md §13 for the layout table).
std::string serialize_compiled_library(const CompiledLibrary& lib);

/// Loader result: `ok` with the full bundle, or a clean error message.
/// Never throws, never crashes, never returns a partial bundle.
struct LibraryLoadResult {
  bool ok = false;
  std::string error;
  CompiledLibrary lib;
};

/// Parses artifact bytes.  Every failure mode — short buffer, flipped
/// magic/version, checksum mismatch, oversized counts, dangling indices
/// — yields `ok == false` with a descriptive error.
LibraryLoadResult deserialize_compiled_library(std::string_view bytes);

/// Writes the artifact to disk (atomically: temp file + rename).
/// Throws std::runtime_error on I/O failure.
void save_compiled_library_file(const CompiledLibrary& lib,
                                const std::string& path);

/// Reads and parses an artifact file.  Missing/unreadable files report
/// through the error result like any other load failure.
LibraryLoadResult load_compiled_library_file(const std::string& path);

/// Builds the NPN library index the priority-cut backend consumes
/// (MapOptions::npn_index): `NpnLibraryIndex(lib.library)`.
NpnLibraryIndex npn_index_from_compiled(const CompiledLibrary& lib);

/// Freshness check: true iff `lib` was compiled from exactly this
/// source text under exactly these key options.  On mismatch, `why`
/// (when non-null) explains which side went stale.
bool validate_compiled_library(const CompiledLibrary& lib,
                               std::string_view genlib_text,
                               const LibCompileOptions& options,
                               std::string* why = nullptr);

}  // namespace dagmap
