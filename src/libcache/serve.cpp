#include "libcache/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "io/blif.hpp"
#include "libcache/json.hpp"
#include "libcache/request.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"

namespace dagmap {

namespace {

using libcache::JsonValue;
using libcache::json_number;
using libcache::json_quote;
using libcache::parse_json;

struct Slot {
  std::uint64_t id = 0;
  std::string circuit;  ///< BLIF text
  MapRequest req;
  LibraryRegistry::Result lib;
  std::string response;  ///< complete JSON line (success or error)
  bool is_error = false;
};

std::string error_line(std::uint64_t id, const std::string& message) {
  return "{\"ok\": false, \"id\": " + std::to_string(id) +
         ", \"error\": " + json_quote(message) + "}";
}

/// Parses one request line into `slot` and returns the library path it
/// maps against.  Throws on malformed input.
std::string parse_request(const std::string& line, const ServeOptions& sopt,
                          Slot& slot) {
  JsonValue v = parse_json(line);
  if (!v.is_object())
    throw libcache::FormatError("request must be a JSON object");
  const JsonValue* circuit = v.find("circuit");
  if (!circuit || circuit->kind != JsonValue::Kind::String)
    throw libcache::FormatError("missing string member \"circuit\"");
  slot.circuit = circuit->string;
  // "library" and "liberty" both name a library source file; the
  // registry sniffs the format from the content, so "liberty" is the
  // protocol-level spelling for .lib sources (and is rejected when
  // both are given).
  std::string genlib_path = v.get_string("library", "");
  std::string liberty_path = v.get_string("liberty", "");
  if (!genlib_path.empty() && !liberty_path.empty())
    throw libcache::FormatError("give \"library\" or \"liberty\", not both");
  std::string library = !genlib_path.empty()    ? genlib_path
                        : !liberty_path.empty() ? liberty_path
                                                : sopt.default_library;
  if (library.empty())
    throw libcache::FormatError(
        "missing \"library\" (and the server has no default)");
  slot.req.supergates = sopt.default_compile.supergate_depth;
  if (const JsonValue* o = v.find("options"))
    parse_request_options(*o, slot.req);
  if (std::string why = validate_request(slot.req); !why.empty())
    throw libcache::FormatError(why);
  return library;
}

/// Maps one request against its resolved library.  In-request threading
/// is pinned to 1 — concurrency comes from mapping many requests at
/// once, and the result is bit-identical either way.
std::string handle_request(const Slot& slot) {
  MapRequest req = slot.req;
  req.map.num_threads = 1;
  RequestResult r = run_request(parse_blif(slot.circuit), *slot.lib.lib, req);
  if (r.equivalent && !*r.equivalent)
    throw std::runtime_error("mapped netlist failed equivalence check");
  const MapResult& result = r.result;

  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                static_cast<unsigned long long>(
                    result.netlist.structural_hash()));

  std::string out = "{\"ok\": true, \"id\": " + std::to_string(slot.id);
  out += ", \"delay\": " + json_number(result.optimal_delay);
  out += ", \"area\": " + json_number(result.netlist.total_area());
  out += ", \"gates\": " + std::to_string(result.netlist.num_gates());
  out += ", \"subject_nodes\": " + std::to_string(r.subject.num_internal());
  out += ", \"structural_hash\": " + json_quote(hash_buf);
  out += ", \"blif\": " + json_quote(write_mapped_blif(result.netlist));
  out += ", \"library\": " + json_quote(slot.lib.lib->library.name());
  out += ", \"cache\": " + json_quote(slot.lib.source);
  if (req.map.source == CandidateSource::Cuts) out += ", \"backend\": \"cuts\"";
  if (req.choices) {
    out += ", \"choice_classes\": " + std::to_string(result.choice_classes);
    out += ", \"choice_variants\": " + std::to_string(result.choice_variants);
    out += ", \"choice_wins\": " + std::to_string(result.choice_wins);
  }
  if (req.map.load_rounds > 0) {
    out += ", \"loaded_delay\": " + json_number(result.loaded_delay);
    out += ", \"loaded_delay_round0\": " +
           json_number(result.loaded_delay_round0);
    out += ", \"load_round\": " + std::to_string(result.load_round_selected);
  }
  if (r.equivalent) out += ", \"verified\": true";
  if (req.map.profile && result.profile.collected)
    out += ", \"profile\": " + json_quote(result.profile.summary());
  out += "}";
  return out;
}

/// Runs `step` for `slot`; an exception becomes its error response.
template <class Step>
void guarded(Slot& slot, Step step) {
  try {
    step();
  } catch (const std::exception& e) {
    slot.response = error_line(slot.id, e.what());
    slot.is_error = true;
  }
}

}  // namespace

ServeSummary run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  ServeSummary summary;
  LibraryRegistry registry({.auto_save = options.auto_save});
  ThreadPool pool(resolve_num_threads(options.num_threads));
  std::uint64_t next_id = 0;
  bool eof = false;
  while (!eof && out) {
    // Gather a batch: block for the first line, then keep appending only
    // while input is already buffered — an interactive client that sends
    // one request and waits gets its response without filling a batch.
    std::vector<Slot> slots;
    std::string line;
    while (slots.size() < std::max<std::size_t>(options.max_batch, 1)) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      slots.emplace_back();
      Slot& slot = slots.back();
      slot.id = next_id++;
      guarded(slot, [&] {
        std::string library = parse_request(line, options, slot);
        LibCompileOptions copt = options.default_compile;
        copt.supergate_depth = slot.req.supergates;
        slot.lib = registry.get(library, copt);
        if (!slot.lib.ok()) throw std::runtime_error(slot.lib.error);
      });
      if (in.rdbuf()->in_avail() <= 0) break;
    }
    if (slots.empty()) continue;
    ++summary.batches;

    pool.parallel_for(slots.size(), [&](std::size_t i, unsigned) {
      Slot& slot = slots[i];
      if (slot.response.empty() && !slot.req.map.profile)
        guarded(slot, [&] { slot.response = handle_request(slot); });
    });
    // Profiled requests run sequentially: the obs session is
    // process-global, so each gets the session to itself.
    for (Slot& slot : slots) {
      if (slot.response.empty() && slot.req.map.profile) {
        obs::start();
        guarded(slot, [&] { slot.response = handle_request(slot); });
        obs::stop();
      }
    }

    for (Slot& slot : slots) {
      ++summary.requests;
      if (slot.is_error) ++summary.errors;
      out << slot.response << "\n";
    }
    out.flush();
  }
  summary.registry = registry.stats();
  return summary;
}

}  // namespace dagmap
