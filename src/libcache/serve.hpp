// Persistent batched serve mode: map a stream of circuits without
// re-compiling the library per invocation.
//
// Protocol (JSON Lines on the input/output streams, one request and one
// response per line):
//
//   request:  {"circuit": "<BLIF text>",
//              "library": "<genlib path>",          // optional w/ default
//              "liberty": "<liberty path>",         // .lib spelling of the
//                                                   // same member (either,
//                                                   // not both; the
//                                                   // registry sniffs the
//                                                   // format anyway)
//              "options": {...}}                    // request_fields()
//   response: {"ok": true, "id": N, "delay": ..., "area": ...,
//              "gates": N, "subject_nodes": N,
//              "structural_hash": "0x...", "blif": "<mapped BLIF>",
//              "library": "<name>", "cache": "memory|artifact|compiled",
//              "backend": "cuts",                   // cut-backend requests
//              "choice_classes": N, ...,            // choice requests
//              "loaded_delay": ..., "loaded_delay_round0": ...,
//              "load_round": N,                     // when load_rounds > 0
//              "verified": true,                    // when verify is on
//              "profile": "<summary>"}              // when requested
//   error:    {"ok": false, "id": N, "error": "<message>"}
//
// The members of "options" are the rows of the request field table
// (libcache/request.hpp, listed in tools/README.md): one member per
// dagmap_cli mapping flag, named with '_' where the flag has '-'.  A
// request maps through `run_request`, the path dagmap_cli takes too;
// "verify" is off unless asked for.
//
// Responses are emitted in request order.  Requests are mapped
// concurrently: lines already buffered on the input are gathered into a
// batch (up to ServeOptions::max_batch) and mapped on the ThreadPool,
// one request per worker with in-request threading pinned to 1 — the
// mapped result is bit-identical to a solo `dagmap_cli` run by the
// determinism contract.  A malformed or failing request produces an
// error response for its line and nothing else; the daemon keeps
// serving.  The options pass `validate_request`, the range check the CLI
// flags share; an option out of range, or one the chosen backend would
// ignore (cut knobs on "structural", a delay factor without an area
// round), is an error line, and so is an unknown member of "options".  Profiled
// requests run sequentially (the obs session is process-global) after
// the concurrent part of their batch.
//
// Libraries resolve through an LRU LibraryRegistry, so the first
// request against a library pays compile (or artifact load) cost and
// subsequent ones map immediately.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "libcache/compiled_library.hpp"
#include "libcache/registry.hpp"

namespace dagmap {

struct ServeOptions {
  /// Concurrent request workers (0 = all hardware threads).
  unsigned num_threads = 0;
  /// Largest request batch mapped per ThreadPool barrier.
  std::size_t max_batch = 32;
  /// Maintain `<genlib>.dmlc` artifact sidecars.
  bool auto_save = true;
  /// Library used by requests that carry no "library" member.
  std::string default_library;
  /// Compile-option defaults for requests without an "options" override.
  LibCompileOptions default_compile;
};

struct ServeSummary {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  RegistryStats registry;
};

/// Runs the serve loop until `in` is exhausted.  Returns the summary
/// (the CLI prints it to stderr).  Never throws on per-request failures;
/// only a broken output stream aborts the loop.
ServeSummary run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options = {});

}  // namespace dagmap
