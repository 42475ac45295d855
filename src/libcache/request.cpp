#include "libcache/request.hpp"

#include <charconv>
#include <utility>

#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "io/number.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace dagmap {

namespace {

using libcache::JsonValue;
using Text = std::string_view;

// Whole-text parsers (from_chars: no sign, no whitespace, no junk, no
// wrap-around; never std::stod, which honors LC_NUMERIC).
bool read_count(Text t, unsigned& out) {
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc() && ptr == t.data() + t.size();
}
bool read_flag(Text t, bool& out) {
  out = t == "true";
  return t == "true" || t == "false";
}

// The ranges of the map knobs are checked by validate_map_options and
// only printed from here; the supergate depth is checked by
// validate_request.
constexpr RequestField kFields[] = {
    {"supergates", FieldType::Count, "0..8", "2",
     "augment the library with supergates of this composition depth",
     [](MapRequest& r, Text t) { return read_count(t, r.supergates); }},
    {"match", FieldType::Word, "standard|extended", "",
     "match class (§3.2; the paper maps with standard)",
     [](MapRequest& r, Text t) {
       r.map.match_class =
           t == "extended" ? MatchClass::Extended : MatchClass::Standard;
       return t == "standard" || t == "extended";
     }},
    {"backend", FieldType::Word, "structural|cuts", "",
     "candidate source: structural matches, or those plus NPN priority cuts",
     [](MapRequest& r, Text t) {
       r.map.source =
           t == "cuts" ? CandidateSource::Cuts : CandidateSource::Structural;
       return t == "structural" || t == "cuts";
     }},
    {"cut_size", FieldType::Count, "2..4", "",
     "cuts backend: maximum cut leaves (default 4)",
     [](MapRequest& r, Text t) { return read_count(t, r.map.cuts.size); }},
    {"cut_count", FieldType::Count, "1..64", "",
     "cuts backend: priority cuts kept per node (default 8)",
     [](MapRequest& r, Text t) { return read_count(t, r.map.cuts.count); }},
    {"area_recovery", FieldType::Flag, "", "true",
     "one required-time area-recovery round, either backend",
     [](MapRequest& r, Text t) { return read_flag(t, r.map.area_recovery); }},
    {"rounds", FieldType::Count, "1..16", "",
     "mapping rounds; each past the first recovers area under required "
     "times (default 1)",
     [](MapRequest& r, Text t) { return read_count(t, r.map.rounds); }},
    {"delay_factor", FieldType::Real, "1..100", "",
     "required-time slack of the area rounds, as a factor of the optimal "
     "delay (default 1)",
     [](MapRequest& r, Text t) {
       std::optional<double> d = parse_double_strict(t);
       r.map.delay_factor = d.value_or(0.0);
       return d.has_value();
     }},
    {"load_rounds", FieldType::Count, "0..16", "",
     "load-aware re-mapping rounds; the best measured round is kept "
     "(default 0)",
     [](MapRequest& r, Text t) { return read_count(t, r.map.load_rounds); }},
    {"choices", FieldType::Word, "balanced,chain,andor,all", "all",
     "decompose into choice classes from these generators",
     [](MapRequest& r, Text t) {
       std::optional<unsigned> gens =
           t.empty() ? 0u : parse_choice_gens(std::string(t));
       r.choices = gens.value_or(0);
       return gens.has_value();
     }},
    {"verify", FieldType::Flag, "", "true",
     "check the mapped netlist against the circuit",
     [](MapRequest& r, Text t) { return read_flag(t, r.verify); }},
    {"profile", FieldType::Flag, "", "true", "per-phase timings and counters",
     [](MapRequest& r, Text t) { return read_flag(t, r.map.profile); }},
};

/// A JSON member as the text its field parses, or nullopt when the JSON
/// type does not fit the field.
std::optional<std::string> json_text(const RequestField& f,
                                     const JsonValue& j) {
  using Kind = JsonValue::Kind;
  if (j.kind == Kind::Bool && f.type == FieldType::Word && !f.bare.empty())
    return j.boolean ? std::string(f.bare) : "";
  if (j.kind == Kind::Bool && f.type == FieldType::Flag)
    return j.boolean ? "true" : "false";
  if (j.kind == Kind::Number &&
      (f.type == FieldType::Count || f.type == FieldType::Real))
    return format_double_shortest(j.number);
  if (j.kind == Kind::String && f.type == FieldType::Word) return j.string;
  return std::nullopt;
}

std::string want(const RequestField& f) {
  return f.range.empty() ? "" : " (want " + std::string(f.range) + ")";
}

}  // namespace

std::span<const RequestField> request_fields() { return kFields; }

std::string cli_flag(const RequestField& field) {
  std::string flag = "--" + std::string(field.name);
  for (char& c : flag)
    if (c == '_') c = '-';
  return flag;
}

std::string cli_spelling(const RequestField& field) {
  std::string flag = cli_flag(field);
  if (field.type == FieldType::Flag) return flag;
  std::string value = "<" + std::string(field.range) + ">";
  return field.bare.empty() ? flag + " " + value : flag + "[=" + value + "]";
}

bool parse_request_flag(int argc, char** argv, int& i,
                        const MapRequest& defaults, MapRequest& req,
                        std::string& error) {
  std::string_view arg = argv[i];
  for (const RequestField& f : kFields) {
    std::string flag = cli_flag(f);
    std::string_view text;
    if (arg == flag && !f.bare.empty()) {
      text = f.bare;
    } else if (arg == flag) {
      if (i + 1 >= argc) {
        error = "missing argument value";
        return true;
      }
      text = argv[++i];
    } else if (f.type != FieldType::Flag && arg.starts_with(flag + "=")) {
      text = arg.substr(flag.size() + 1);
    } else if (f.type == FieldType::Flag && arg == "--no-" + flag.substr(2)) {
      // Only a flag this entry point turns on by default can be turned
      // off; otherwise `--no-<flag>` is no flag at all.
      MapRequest off = defaults;
      f.set(off, "false");
      if (off == defaults) return false;
      text = "false";
    } else {
      continue;
    }
    if (!f.set(req, text))
      error = "bad " + flag + " value `" + std::string(text) + "`" + want(f);
    return true;
  }
  return false;
}

void parse_request_options(const JsonValue& options, MapRequest& req) {
  if (!options.is_object())
    throw libcache::FormatError("\"options\" must be an object");
  for (const auto& [name, value] : options.members) {
    const RequestField* f = nullptr;
    for (const RequestField& row : kFields)
      if (row.name == name) f = &row;
    // A misspelled option would otherwise map with its default.
    if (f == nullptr)
      throw libcache::FormatError("unknown option " +
                                  libcache::json_quote(name));
    std::optional<std::string> text = json_text(*f, value);
    if (!text || !f->set(req, *text))
      throw libcache::FormatError("bad \"" + name + "\" value" + want(*f));
  }
}

std::string validate_request(const MapRequest& req) {
  if (req.supergates > kMaxSupergateDepth)
    return "bad supergate depth " + std::to_string(req.supergates) +
           " (want 0.." + std::to_string(kMaxSupergateDepth) + ")";
  return validate_map_options(req.map);
}

RequestResult run_request(const Network& circuit, const CompiledLibrary& lib,
                          const MapRequest& req) {
  RequestResult out;
  MapOptions mopt = req.map;
  mopt.pattern_index = &lib.index;
  // Kept alive through the mapping call: mopt.choices borrows its classes.
  std::optional<ChoiceDecomposition> choice;
  if (req.choices != 0) {
    obs::Scope scope("decompose.choices");
    ChoiceOptions copt;
    copt.gens = req.choices;
    choice = tech_decompose_choices(circuit, copt);
    choice->validate();
    mopt.choices = &choice->classes;
  } else {
    out.subject = tech_decompose(circuit);
  }
  const Network& subject = choice ? choice->subject : out.subject;
  // Built from the compiled bundle per request, so concurrent serve
  // workers never share mutable state.
  std::optional<NpnLibraryIndex> npn;
  if (mopt.source == CandidateSource::Cuts) {
    obs::Scope scope("cutmap.npn_index");
    mopt.npn_index = &npn.emplace(npn_index_from_compiled(lib));
  }
  out.result = map(subject, lib.library, mopt);
  if (choice) out.subject = std::move(choice->subject);
  if (req.verify) {
    obs::Scope scope("verify");
    out.equivalent =
        check_equivalence(circuit, out.result.netlist.to_network()).equivalent;
  }
  return out;
}

}  // namespace dagmap
