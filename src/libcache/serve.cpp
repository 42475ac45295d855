#include "libcache/serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "boolmatch/npn_index.hpp"
#include "core/dag_mapper.hpp"
#include "core/parallel.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "io/blif.hpp"
#include "libcache/json.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace dagmap {

namespace {

using libcache::JsonValue;
using libcache::json_number;
using libcache::json_quote;
using libcache::parse_json;

struct Request {
  std::string circuit;
  std::string library;
  LibCompileOptions compile;
  /// Mapping knobs, checked by validate_map_options; threads, indexes
  /// and the choice annotation are filled in per request at map time.
  MapOptions map;
  bool verify = false;
  /// Choice-aware mapping: `"choices": true` (all generators) or a
  /// comma list of generator names (decomp/choices.hpp); both backends
  /// honor it.
  bool choices = false;
  unsigned choice_gens = kChoiceGenAll;
};

struct Slot {
  std::uint64_t id = 0;
  Request req;
  std::shared_ptr<const CompiledLibrary> lib;
  std::string cache_source;
  std::string response;  ///< complete JSON line (success or error)
  bool is_error = false;
  bool profiled = false;
};

/// Member `key` of `o` as an unsigned integer (`fallback` if absent).
/// Only the representation is checked here; validate_map_options owns
/// the ranges.
unsigned get_unsigned(const JsonValue& o, const char* key, unsigned fallback) {
  double v = o.get_number(key, fallback);
  if (!(v >= 0 && v <= 4294967295.0) || v != std::floor(v))
    throw libcache::FormatError(std::string("bad \"") + key + "\" value");
  return static_cast<unsigned>(v);
}

std::string error_line(std::uint64_t id, const std::string& message) {
  return "{\"ok\": false, \"id\": " + std::to_string(id) +
         ", \"error\": " + json_quote(message) + "}";
}

/// Parses one request line into `slot.req`; false (with the error
/// response filled in) on malformed input.
bool parse_request(const std::string& line, const ServeOptions& sopt,
                   Slot& slot) {
  try {
    JsonValue v = parse_json(line);
    if (!v.is_object())
      throw libcache::FormatError("request must be a JSON object");
    const JsonValue* circuit = v.find("circuit");
    if (!circuit || circuit->kind != JsonValue::Kind::String)
      throw libcache::FormatError("missing string member \"circuit\"");
    slot.req.circuit = circuit->string;
    // "library" and "liberty" both name a library source file; the
    // registry sniffs the format from the content, so "liberty" is the
    // protocol-level spelling for .lib sources (and is rejected when
    // both are given).
    std::string genlib_path = v.get_string("library", "");
    std::string liberty_path = v.get_string("liberty", "");
    if (!genlib_path.empty() && !liberty_path.empty())
      throw libcache::FormatError(
          "give \"library\" or \"liberty\", not both");
    slot.req.library = !genlib_path.empty()    ? genlib_path
                       : !liberty_path.empty() ? liberty_path
                                               : sopt.default_library;
    if (slot.req.library.empty())
      throw libcache::FormatError(
          "missing \"library\" (and the server has no default)");
    slot.req.compile = sopt.default_compile;
    if (const JsonValue* o = v.find("options")) {
      if (!o->is_object())
        throw libcache::FormatError("\"options\" must be an object");
      // A misspelled option would otherwise map with its default.
      static constexpr std::string_view kKnown[] = {
          "supergates", "match",        "area_recovery", "verify",
          "profile",    "backend",      "cut_size",      "cut_count",
          "rounds",     "delay_factor", "load_rounds",   "choices"};
      for (const auto& member : o->members)
        if (std::ranges::find(kKnown, member.first) == std::end(kKnown))
          throw libcache::FormatError("unknown option " +
                                      json_quote(member.first));
      double depth = o->get_number("supergates",
                                   slot.req.compile.supergate_depth);
      if (depth < 0 || depth > 8)
        throw libcache::FormatError("bad \"supergates\" depth");
      slot.req.compile.supergate_depth = static_cast<unsigned>(depth);
      MapOptions& m = slot.req.map;
      std::string match = o->get_string("match", "standard");
      if (match == "extended") m.match_class = MatchClass::Extended;
      else if (match != "standard")
        throw libcache::FormatError("bad \"match\" value " + match);
      m.area_recovery = o->get_bool("area_recovery", false);
      slot.req.verify = o->get_bool("verify", false);
      m.profile = o->get_bool("profile", false);
      std::string backend = o->get_string("backend", "structural");
      if (backend == "cuts") m.source = CandidateSource::Cuts;
      else if (backend != "structural")
        throw libcache::FormatError("bad \"backend\" value " + backend);
      m.cuts.size = get_unsigned(*o, "cut_size", m.cuts.size);
      m.cuts.count = get_unsigned(*o, "cut_count", m.cuts.count);
      m.rounds = get_unsigned(*o, "rounds", m.rounds);
      m.delay_factor = o->get_number("delay_factor", m.delay_factor);
      m.load_rounds = get_unsigned(*o, "load_rounds", m.load_rounds);
      if (const JsonValue* c = o->find("choices")) {
        if (c->kind == JsonValue::Kind::Bool) {
          slot.req.choices = c->boolean;
        } else if (c->kind == JsonValue::Kind::String) {
          std::optional<unsigned> gens = parse_choice_gens(c->string);
          if (!gens)
            throw libcache::FormatError(
                "bad \"choices\" generator list " + json_quote(c->string) +
                " (want balanced,chain,andor,all)");
          slot.req.choices = true;
          slot.req.choice_gens = *gens;
        } else {
          throw libcache::FormatError(
              "\"choices\" must be a bool or a generator-list string");
        }
      }
    }
    if (std::string why = validate_map_options(slot.req.map); !why.empty())
      throw libcache::FormatError(why);
    return true;
  } catch (const std::exception& e) {
    slot.response = error_line(slot.id, e.what());
    slot.is_error = true;
    return false;
  }
}

/// Maps one request against its resolved library.  In-request threading
/// is pinned to 1 — concurrency comes from mapping many requests at
/// once, and the result is bit-identical either way.
std::string handle_request(const Slot& slot) {
  const Request& req = slot.req;
  Network circuit = parse_blif(req.circuit);
  // Kept alive through the mapping call when choices are on: the option
  // structs borrow `choice->classes`.
  std::optional<ChoiceDecomposition> choice;
  const ChoiceClasses* classes = nullptr;
  Network subject;
  if (req.choices) {
    ChoiceOptions chopt;
    chopt.gens = req.choice_gens;
    choice = tech_decompose_choices(circuit, chopt);
    choice->validate();
    subject = choice->subject;
    classes = &choice->classes;
  } else {
    subject = tech_decompose(circuit);
  }

  const bool cuts = req.map.source == CandidateSource::Cuts;
  MapOptions mopt = req.map;
  mopt.num_threads = 1;
  mopt.choices = classes;
  mopt.pattern_index = &slot.lib->index;
  // Per-request NPN index build, seeded by the compiled bundle's stored
  // NPN classes (cheap: early-exiting transform search per gate), so
  // concurrent batch workers never share mutable state.
  std::optional<NpnLibraryIndex> npn;
  if (cuts) mopt.npn_index = &npn.emplace(npn_index_from_compiled(*slot.lib));
  MapResult result = map(subject, slot.lib->library, mopt);

  bool verified = false;
  if (req.verify) {
    EquivalenceResult eq =
        check_equivalence(circuit, result.netlist.to_network());
    if (!eq.equivalent)
      throw std::runtime_error("mapped netlist failed equivalence check");
    verified = true;
  }

  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                static_cast<unsigned long long>(
                    result.netlist.structural_hash()));

  std::string out = "{\"ok\": true, \"id\": " + std::to_string(slot.id);
  out += ", \"delay\": " + json_number(result.optimal_delay);
  out += ", \"area\": " + json_number(result.netlist.total_area());
  out += ", \"gates\": " + std::to_string(result.netlist.num_gates());
  out += ", \"subject_nodes\": " + std::to_string(subject.num_internal());
  out += ", \"structural_hash\": " + json_quote(hash_buf);
  out += ", \"blif\": " + json_quote(write_mapped_blif(result.netlist));
  out += ", \"library\": " + json_quote(slot.lib->library.name());
  out += ", \"cache\": " + json_quote(slot.cache_source);
  if (cuts) out += ", \"backend\": \"cuts\"";
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
  if (verified) out += ", \"verified\": true";
  if (req.map.profile && result.profile.collected)
    out += ", \"profile\": " + json_quote(result.profile.summary());
  out += "}";
  return out;
}

void handle_into(Slot& slot) {
  try {
    slot.response = handle_request(slot);
  } catch (const std::exception& e) {
    slot.response = error_line(slot.id, e.what());
    slot.is_error = true;
  }
}

bool blank(const std::string& line) {
  for (char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

}  // namespace

ServeSummary run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  ServeSummary summary;
  LibraryRegistry registry({.capacity = options.registry_capacity,
                            .auto_save = options.auto_save});
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
      if (blank(line)) continue;
      slots.emplace_back();
      slots.back().id = next_id++;
      if (parse_request(line, options, slots.back())) {
        LibraryRegistry::Result lib =
            registry.get(slots.back().req.library, slots.back().req.compile);
        if (!lib.ok()) {
          slots.back().response = error_line(slots.back().id, lib.error);
          slots.back().is_error = true;
        } else {
          slots.back().lib = std::move(lib.lib);
          slots.back().cache_source = std::move(lib.source);
          slots.back().profiled = slots.back().req.map.profile;
        }
      }
      if (in.rdbuf()->in_avail() <= 0) break;
    }
    if (slots.empty()) continue;
    ++summary.batches;

    pool.parallel_for(slots.size(), [&](std::size_t i, unsigned) {
      if (slots[i].response.empty() && !slots[i].profiled)
        handle_into(slots[i]);
    });
    // Profiled requests run sequentially: the obs session is
    // process-global, so each gets the session to itself.
    for (Slot& slot : slots) {
      if (slot.response.empty() && slot.profiled) {
        obs::start();
        handle_into(slot);
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
