// One mapping request, the path both entry points share.
//
// dagmap_cli fills a `MapRequest` from its flags and serve mode fills
// one from each JSONL request's "options" object; both then call
// `run_request`.  Every request option is one row of `request_fields()`
// — its JSON name, type, range, bare-flag value and a one-line doc —
// so the flag parser and the JSON parser are loops over one table (the
// model is abc-zz's `Params_LutMap`: one documented parameter block).
// The CLI flag is the JSON name with '_' spelled '-' (`cut_size` ->
// `--cut-size`).  tools/README.md lists the same rows; a test keeps the
// two in step.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/dag_mapper.hpp"
#include "libcache/compiled_library.hpp"
#include "libcache/json.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// The deepest supergate composition a request may ask for.
inline constexpr unsigned kMaxSupergateDepth = 8;

struct MapRequest {
  /// Mapping knobs (threads and indexes are the caller's).
  MapOptions map;
  /// Supergate composition depth of the library; 0 = the plain library.
  unsigned supergates = 0;
  /// Choice generators (decomp/choices.hpp); 0 = one plain decomposition.
  unsigned choices = 0;
  /// Check the mapped netlist against the circuit.
  bool verify = false;

  bool operator==(const MapRequest&) const = default;
};

enum class FieldType {
  Flag,   ///< JSON bool; the bare CLI flag turns it on
  Count,  ///< JSON integer; CLI decimal digits
  Real,   ///< JSON number; CLI decimal, read in the C locale
  Word,   ///< JSON string; CLI text
};

struct RequestField {
  std::string_view name;   ///< JSON member; the CLI flag is derived
  FieldType type;
  std::string_view range;  ///< accepted values, as errors and docs print them
  /// What the bare CLI flag means ("" = the flag takes a value).  A Word
  /// field with a bare value also takes a JSON bool: true means the
  /// bare value, false the empty word, which turns the field off.
  std::string_view bare;
  std::string_view doc;
  /// Stores the value given as text (a JSON number as its shortest
  /// decimal, a flag as "true" or "false"); false when it does not parse.
  bool (*set)(MapRequest&, std::string_view text);
};

/// The field table, in documentation order.
std::span<const RequestField> request_fields();

/// `--cut-size` for `cut_size`.
std::string cli_flag(const RequestField& field);

/// How usage and docs spell the flag: `--area-recovery`,
/// `--cut-size <2..4>`, `--supergates[=<0..8>]`.
std::string cli_spelling(const RequestField& field);

/// Offers `argv[i]` to the table.  Returns false when it names no
/// request flag.  Otherwise applies `--flag`, `--flag value` (consuming
/// the value) or `--flag=value` to `req` and returns true, with a usage
/// message in `error` on a bad value.  `--no-<flag>` turns off a flag
/// that is on in `defaults` (the CLI's `--no-verify`).
bool parse_request_flag(int argc, char** argv, int& i,
                        const MapRequest& defaults, MapRequest& req,
                        std::string& error);

/// Applies every member of a serve request's "options" object to `req`.
/// Throws libcache::FormatError on an unknown member or a bad value.
void parse_request_options(const libcache::JsonValue& options,
                           MapRequest& req);

/// The one range check of a request: validate_map_options plus the
/// supergate depth.  Empty when valid, else the reason.
std::string validate_request(const MapRequest& req);

/// What one request produced.
struct RequestResult {
  MapResult result;
  Network subject;  ///< the decomposed subject graph that was mapped
  /// The equivalence verdict; empty unless the request asked to verify.
  std::optional<bool> equivalent;
};

/// Runs one request: decompose (with choice classes when asked), map
/// against `lib` with its compiled pattern index (and its NPN classes
/// for the cut backend), and check equivalence when asked.  `lib` must
/// have been compiled at `req.supergates`.
RequestResult run_request(const Network& circuit, const CompiledLibrary& lib,
                          const MapRequest& req);

}  // namespace dagmap
