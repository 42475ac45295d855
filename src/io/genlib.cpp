#include "io/genlib.hpp"

#include <fstream>
#include <sstream>

#include "io/number.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {

// Tokenizer: GENLIB is whitespace-separated except that the gate function
// runs from the '=' to the ';' and may contain spaces.
struct Lexer {
  explicit Lexer(const std::string& text) : text(text) {}

  void skip_ws_and_comments() {
    while (pos < text.size()) {
      char c = text[pos];
      if (c == '#') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_ws_and_comments();
    return pos >= text.size();
  }

  std::string next_token() {
    skip_ws_and_comments();
    if (pos >= text.size()) throw ParseError("unexpected end of GENLIB file");
    std::size_t start = pos;
    while (pos < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos])) &&
           text[pos] != '#')
      ++pos;
    return text.substr(start, pos - start);
  }

  /// Everything up to (and excluding) the next ';'.
  std::string until_semicolon() {
    skip_ws_and_comments();
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos)
      throw ParseError("gate function not terminated by ';'");
    std::string s = text.substr(pos, semi - pos);
    pos = semi + 1;
    return s;
  }

  const std::string& text;
  std::size_t pos = 0;
};

double parse_double(const std::string& tok, const char* what) {
  // Locale-independent: GENLIB numbers are always '.'-formatted, even
  // when the process runs under a comma-decimal locale (io/number.hpp).
  std::optional<double> v = parse_double_strict(tok);
  if (!v) throw ParseError(std::string("bad ") + what + " value '" + tok + "'");
  return *v;
}

GenlibPin::Phase parse_phase(const std::string& tok) {
  if (tok == "INV") return GenlibPin::Phase::Inv;
  if (tok == "NONINV") return GenlibPin::Phase::NonInv;
  if (tok == "UNKNOWN") return GenlibPin::Phase::Unknown;
  throw ParseError("bad pin phase '" + tok + "'");
}

const char* phase_name(GenlibPin::Phase p) {
  switch (p) {
    case GenlibPin::Phase::Inv: return "INV";
    case GenlibPin::Phase::NonInv: return "NONINV";
    case GenlibPin::Phase::Unknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

}  // namespace

std::vector<GenlibGate> parse_genlib(const std::string& text) {
  Lexer lex(text);
  std::vector<GenlibGate> gates;
  while (!lex.eof()) {
    std::string kw = lex.next_token();
    if (kw == "GATE") {
      GenlibGate g;
      g.name = lex.next_token();
      g.area = parse_double(lex.next_token(), "area");
      std::string fn = lex.until_semicolon();
      std::size_t eq = fn.find('=');
      if (eq == std::string::npos)
        throw ParseError("gate function missing '=' in " + g.name);
      // Trim the output name.
      std::string out = fn.substr(0, eq);
      out.erase(0, out.find_first_not_of(" \t\r\n"));
      out.erase(out.find_last_not_of(" \t\r\n") + 1);
      g.output_name = out;
      g.function = parse_expression(fn.substr(eq + 1));
      gates.push_back(std::move(g));
    } else if (kw == "PIN") {
      if (gates.empty()) throw ParseError("PIN before any GATE");
      GenlibPin p;
      p.name = lex.next_token();
      p.phase = parse_phase(lex.next_token());
      p.input_load = parse_double(lex.next_token(), "input-load");
      p.max_load = parse_double(lex.next_token(), "max-load");
      p.rise_block = parse_double(lex.next_token(), "rise-block");
      p.rise_fanout = parse_double(lex.next_token(), "rise-fanout");
      p.fall_block = parse_double(lex.next_token(), "fall-block");
      p.fall_fanout = parse_double(lex.next_token(), "fall-fanout");
      gates.back().pins.push_back(std::move(p));
    } else if (kw == "LATCH") {
      throw ParseError("GENLIB LATCH statements are not supported");
    } else {
      throw ParseError("unknown GENLIB statement '" + kw + "'");
    }
  }
  return gates;
}

std::vector<GenlibGate> read_genlib_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open GENLIB file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_genlib(ss.str());
}

std::string write_genlib(const std::vector<GenlibGate>& gates) {
  // Shortest round-trip numbers: parse_genlib reads back exactly the
  // doubles written, and the C-locale form never emits "1,5".
  auto num = format_double_shortest;
  std::ostringstream out;
  for (const GenlibGate& g : gates) {
    out << "GATE " << g.name << " " << num(g.area) << " " << g.output_name
        << "=" << to_string(g.function) << ";\n";
    for (const GenlibPin& p : g.pins) {
      out << "  PIN " << p.name << " " << phase_name(p.phase) << " "
          << num(p.input_load) << " " << num(p.max_load) << " "
          << num(p.rise_block) << " " << num(p.rise_fanout) << " "
          << num(p.fall_block) << " " << num(p.fall_fanout) << "\n";
    }
  }
  return out.str();
}

}  // namespace dagmap
