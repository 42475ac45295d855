#include "io/liberty.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "io/number.hpp"

namespace dagmap {
namespace {

// ---------------------------------------------------------------------------
// Lexer.  Liberty is free-form: identifiers/numbers, quoted strings,
// punctuation ( ) { } : ; , plus C and C++ comments and '\'-newline
// continuations inside and outside strings.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind : std::uint8_t { Ident, String, Punct, End };
  Kind kind = Kind::End;
  std::string text;
  std::size_t line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;  // Kind::End
    char c = text_[pos_];
    if (c == '"') {
      t.kind = Token::Kind::String;
      t.text = quoted_string();
      return t;
    }
    if (std::strchr("(){};:,", c)) {
      t.kind = Token::Kind::Punct;
      t.text = std::string(1, c);
      ++pos_;
      return t;
    }
    t.kind = Token::Kind::Ident;
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char d = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(d)) ||
          std::strchr("(){};:,\"", d))
        break;
      if (d == '\\' && pos_ + 1 < text_.size() &&
          (text_[pos_ + 1] == '\n' || text_[pos_ + 1] == '\r'))
        break;
      ++pos_;
    }
    t.text = std::string(text_.substr(start, pos_ - start));
    return t;
  }

  std::size_t line() const { return line_; }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '\\' && pos_ + 1 < text_.size() &&
                 (text_[pos_ + 1] == '\n' || text_[pos_ + 1] == '\r')) {
        pos_ += 2;  // line continuation
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '*') {
        std::size_t end = text_.find("*/", pos_ + 2);
        if (end == std::string_view::npos)
          throw ParseError("liberty: unterminated /* comment at line " +
                           std::to_string(line_));
        for (std::size_t i = pos_; i < end; ++i)
          if (text_[i] == '\n') ++line_;
        pos_ = end + 2;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  std::string quoted_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\' && pos_ + 1 < text_.size() &&
          (text_[pos_ + 1] == '\n' || text_[pos_ + 1] == '\r')) {
        pos_ += 2;  // continuation inside a string: splice the lines
        ++line_;
        continue;
      }
      if (c == '\n') ++line_;
      out.push_back(c);
      ++pos_;
    }
    throw ParseError("liberty: unterminated string at line " +
                     std::to_string(line_));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

// ---------------------------------------------------------------------------
// Generic group tree.  Every Liberty construct is one of:
//   group:             kind ( args ) { statements }
//   simple attribute:  name : value ;
//   complex attribute: name ( values ) ;
// Unknown constructs parse fine and are simply never interpreted.
// ---------------------------------------------------------------------------

struct Group {
  std::string kind;
  std::vector<std::string> args;
  std::vector<std::pair<std::string, std::string>> attrs;  // simple
  std::vector<std::pair<std::string, std::vector<std::string>>> complex;
  std::vector<Group> groups;

  const std::string* attr(std::string_view name) const {
    for (const auto& [k, v] : attrs)
      if (k == name) return &v;
    return nullptr;
  }
  const std::vector<std::string>* complex_attr(std::string_view name) const {
    for (const auto& [k, v] : complex)
      if (k == name) return &v;
    return nullptr;
  }
  const Group* subgroup(std::string_view kind_name) const {
    for (const Group& g : groups)
      if (g.kind == kind_name) return &g;
    return nullptr;
  }
};

class GroupParser {
 public:
  explicit GroupParser(std::string_view text) : lex_(text) { advance(); }

  Group parse_root() {
    if (cur_.kind != Token::Kind::Ident || cur_.text != "library")
      throw ParseError("liberty: expected `library (...) { ... }` at line " +
                       std::to_string(cur_.line));
    Group root = parse_group();
    if (cur_.kind != Token::Kind::End)
      throw ParseError("liberty: trailing content after library group "
                       "at line " +
                       std::to_string(cur_.line));
    return root;
  }

 private:
  void advance() { cur_ = lex_.next(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("liberty: " + what + " at line " +
                     std::to_string(cur_.line));
  }

  void expect_punct(char c) {
    if (cur_.kind != Token::Kind::Punct || cur_.text[0] != c)
      fail(std::string("expected '") + c + "'");
    advance();
  }

  bool at_punct(char c) const {
    return cur_.kind == Token::Kind::Punct && cur_.text[0] == c;
  }

  // cur_ is the group kind identifier, '(' follows.
  Group parse_group() {
    Group g;
    g.kind = cur_.text;
    advance();
    expect_punct('(');
    while (!at_punct(')')) {
      if (cur_.kind == Token::Kind::End) fail("unexpected end in group args");
      if (cur_.kind == Token::Kind::Punct && cur_.text[0] == ',') {
        advance();
        continue;
      }
      g.args.push_back(cur_.text);
      advance();
    }
    advance();  // ')'
    expect_punct('{');
    while (!at_punct('}')) {
      if (cur_.kind == Token::Kind::End)
        fail("unexpected end: missing '}' for group `" + g.kind + "`");
      parse_statement(g);
    }
    advance();  // '}'
    if (at_punct(';')) advance();  // optional trailing ';'
    return g;
  }

  void parse_statement(Group& parent) {
    if (cur_.kind != Token::Kind::Ident && cur_.kind != Token::Kind::String)
      fail("expected statement in group `" + parent.kind + "`");
    std::string name = cur_.text;
    advance();
    if (at_punct(':')) {  // simple attribute
      advance();
      std::string value;
      bool first = true;
      while (!at_punct(';')) {
        if (cur_.kind == Token::Kind::End || at_punct('{') || at_punct('}'))
          fail("missing ';' after attribute `" + name + "`");
        if (!first) value += ' ';
        value += cur_.text;
        first = false;
        advance();
      }
      advance();  // ';'
      parent.attrs.emplace_back(std::move(name), std::move(value));
      return;
    }
    if (at_punct('(')) {
      // Lookahead past the balanced arg list: '{' means group, else
      // complex attribute.
      std::vector<std::string> values;
      advance();
      while (!at_punct(')')) {
        if (cur_.kind == Token::Kind::End)
          fail("unexpected end in `" + name + "(...)`");
        if (at_punct(',')) {
          advance();
          continue;
        }
        if (at_punct('{') || at_punct('}'))
          fail("unexpected brace in `" + name + "(...)`");
        values.push_back(cur_.text);
        advance();
      }
      advance();  // ')'
      if (at_punct('{')) {
        if (++depth_ > kMaxDepth)
          fail("group nesting too deep (more than " +
               std::to_string(kMaxDepth) + " levels)");
        Group g;
        g.kind = std::move(name);
        g.args = std::move(values);
        advance();  // '{'
        while (!at_punct('}')) {
          if (cur_.kind == Token::Kind::End)
            fail("unexpected end: missing '}' for group `" + g.kind + "`");
          parse_statement(g);
        }
        advance();  // '}'
        if (at_punct(';')) advance();
        parent.groups.push_back(std::move(g));
        --depth_;
      } else {
        if (at_punct(';')) advance();  // ';' is optional after ')'
        parent.complex.emplace_back(std::move(name), std::move(values));
      }
      return;
    }
    fail("expected ':' or '(' after `" + name + "`");
  }

  // Groups below `library` deeper than this are a ParseError, not a
  // stack overflow; real libraries nest about five levels (library,
  // cell, pin, timing, table).
  static constexpr int kMaxDepth = 64;

  Lexer lex_;
  Token cur_;
  int depth_ = 0;
};

// ---------------------------------------------------------------------------
// Liberty Boolean functions.  Same shape as the GENLIB grammar plus the
// XOR operator, which the Expr AST does not carry — expanded on the
// spot: a ^ b  =>  a*!b + !a*b.
//   or     := xor (('+' | '|') xor)*
//   xor    := and ('^' and)*
//   and    := factor (('*' | '&')? factor)*          (juxtaposition)
//   factor := '!' factor | atom ('\'')*
//   atom   := identifier | '0' | '1' | '(' or ')'
// ---------------------------------------------------------------------------

class FunctionParser {
 public:
  explicit FunctionParser(std::string_view text) : text_(text) {}

  Expr parse() {
    Expr e = parse_or();
    skip_ws();
    if (pos_ != text_.size())
      throw ParseError("liberty: trailing characters in function `" +
                       std::string(text_) + "`");
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Expr parse_or() {
    std::vector<Expr> ops;
    ops.push_back(parse_xor());
    while (eat('+') || eat('|')) ops.push_back(parse_xor());
    if (ops.size() == 1) return std::move(ops[0]);
    return Expr::make_or(std::move(ops));
  }

  Expr parse_xor() {
    Expr e = parse_and();
    while (eat('^')) {
      Expr rhs = parse_and();
      Expr l = e, r = rhs;  // a^b = a*!b + !a*b
      std::vector<Expr> lhs_ops, rhs_ops;
      lhs_ops.push_back(std::move(e));
      lhs_ops.push_back(Expr::make_not(std::move(rhs)));
      rhs_ops.push_back(Expr::make_not(std::move(l)));
      rhs_ops.push_back(std::move(r));
      std::vector<Expr> sum;
      sum.push_back(Expr::make_and(std::move(lhs_ops)));
      sum.push_back(Expr::make_and(std::move(rhs_ops)));
      e = Expr::make_or(std::move(sum));
    }
    return e;
  }

  bool starts_factor() {
    char c = peek();
    return c == '!' || c == '(' ||
           std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  Expr parse_and() {
    std::vector<Expr> ops;
    ops.push_back(parse_factor());
    for (;;) {
      if (eat('*') || eat('&')) {
        ops.push_back(parse_factor());
      } else if (starts_factor()) {
        ops.push_back(parse_factor());  // juxtaposition
      } else {
        break;
      }
    }
    if (ops.size() == 1) return std::move(ops[0]);
    return Expr::make_and(std::move(ops));
  }

  // Every nesting level — a prefix '!' or a parenthesis — passes here.
  Expr parse_factor() {
    if (++depth_ > kMaxExprNesting)
      throw ParseError("liberty: function nesting too deep (more than " +
                       std::to_string(kMaxExprNesting) + " levels)");
    Expr e = eat('!') ? Expr::make_not(parse_factor()) : parse_atom();
    while (eat('\'')) e = Expr::make_not(std::move(e));
    --depth_;
    return e;
  }

  Expr parse_atom() {
    skip_ws();
    if (eat('(')) {
      Expr e = parse_or();
      if (!eat(')'))
        throw ParseError("liberty: missing ')' in function `" +
                         std::string(text_) + "`");
      return e;
    }
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '[' || c == ']')
        ++pos_;
      else
        break;
    }
    if (pos_ == start)
      throw ParseError("liberty: expected operand in function `" +
                       std::string(text_) + "`");
    std::string name(text_.substr(start, pos_ - start));
    if (name == "0") return Expr::make_const(false);
    if (name == "1") return Expr::make_const(true);
    return Expr::make_var(std::move(name));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---------------------------------------------------------------------------
// Numeric helpers.
// ---------------------------------------------------------------------------

double parse_number(const std::string& tok, const char* what) {
  auto v = parse_double_strict(tok);
  if (!v || !std::isfinite(*v))
    throw ParseError(std::string("liberty: bad ") + what + " `" + tok + "`");
  return *v;
}

// Splits a quoted number list ("0.1, 0.2, 0.3") into doubles.  Liberty
// writes index/value vectors as comma/space-separated strings.
std::vector<double> parse_number_list(const std::string& s, const char* what) {
  std::vector<double> out;
  std::string tok;
  auto flush = [&] {
    if (tok.empty()) return;
    out.push_back(parse_number(tok, what));
    tok.clear();
  };
  for (char c : s) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c)) || c == '\\')
      flush();
    else
      tok.push_back(c);
  }
  flush();
  return out;
}

// Least-squares fit delay(load) = block + slope * load.  Degenerate
// inputs (single point, identical loads) fall back to a flat fit; the
// slope is clamped to >= 0 so a noisy table can never produce a delay
// model that *improves* with load (sizing and the load-aware rounds
// assume monotone pin delays).
struct LinearFit {
  double block = 0.0;
  double slope = 0.0;
};

LinearFit fit_block_slope(const std::vector<double>& load,
                          const std::vector<double>& delay) {
  LinearFit f;
  std::size_t n = std::min(load.size(), delay.size());
  if (n == 0) return f;
  double mean_x = 0, mean_y = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_x += load[i];
    mean_y += delay[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double dx = load[i] - mean_x;
    sxx += dx * dx;
    sxy += dx * (delay[i] - mean_y);
  }
  f.slope = sxx > 0 ? std::max(0.0, sxy / sxx) : 0.0;
  f.block = std::max(0.0, mean_y - f.slope * mean_x);
  return f;
}

// ---------------------------------------------------------------------------
// NLDM table interpretation.
// ---------------------------------------------------------------------------

// Per-template axis info: which index (1 or 2) carries the output
// capacitance.  0 = unknown template.
struct TemplateInfo {
  int cap_axis = 0;  // 1 or 2, 0 if not declared
  std::vector<double> index_1, index_2;
};

using TemplateMap = std::map<std::string, TemplateInfo>;

TemplateMap collect_templates(const Group& library) {
  TemplateMap out;
  for (const Group& g : library.groups) {
    if (g.kind != "lu_table_template" || g.args.empty()) continue;
    TemplateInfo info;
    if (const std::string* v1 = g.attr("variable_1"))
      if (v1->find("capacitance") != std::string::npos) info.cap_axis = 1;
    if (const std::string* v2 = g.attr("variable_2"))
      if (v2->find("capacitance") != std::string::npos) info.cap_axis = 2;
    if (const auto* i1 = g.complex_attr("index_1"))
      if (!i1->empty()) info.index_1 = parse_number_list((*i1)[0], "index_1");
    if (const auto* i2 = g.complex_attr("index_2"))
      if (!i2->empty()) info.index_2 = parse_number_list((*i2)[0], "index_2");
    out[g.args[0]] = std::move(info);
  }
  return out;
}

// Collapses one cell_rise/cell_fall table group to a block+slope fit.
// 2-D tables are averaged over the non-capacitance axis first.
LinearFit fit_table(const Group& table, const TemplateMap& templates) {
  TemplateInfo info;
  if (!table.args.empty()) {
    auto it = templates.find(table.args[0]);
    if (it != templates.end()) info = it->second;
  }
  // Inline index_1/index_2 override the template's.
  if (const auto* i1 = table.complex_attr("index_1"))
    if (!i1->empty()) info.index_1 = parse_number_list((*i1)[0], "index_1");
  if (const auto* i2 = table.complex_attr("index_2"))
    if (!i2->empty()) info.index_2 = parse_number_list((*i2)[0], "index_2");

  const auto* values = table.complex_attr("values");
  if (!values || values->empty())
    throw ParseError("liberty: table group without values()");
  std::vector<std::vector<double>> rows;
  for (const std::string& row : *values)
    rows.push_back(parse_number_list(row, "table value"));
  for (const auto& row : rows)
    if (row.empty() || row.size() != rows.front().size())
      throw ParseError("liberty: ragged values() table");

  std::size_t n_rows = rows.size();          // index_1 axis
  std::size_t n_cols = rows.front().size();  // index_2 axis

  if (n_rows == 1 && info.index_1.size() != 1 && info.index_2.empty() &&
      info.index_1.size() == n_cols) {
    // 1-D table written as a single row against index_1.
    return fit_block_slope(info.index_1, rows[0]);
  }

  // Decide which axis is the load axis.  Template declaration wins;
  // otherwise the common convention puts capacitance on index_2 of a
  // 2-D table and index_1 of a 1-D one.
  int cap_axis = info.cap_axis;
  if (cap_axis == 0) cap_axis = (n_rows > 1 && n_cols > 1) ? 2 : (n_cols > 1 ? 2 : 1);

  std::vector<double> loads =
      cap_axis == 1 ? info.index_1 : info.index_2;
  std::size_t n_load = cap_axis == 1 ? n_rows : n_cols;
  if (loads.size() != n_load) {
    // No usable index vector: fall back to unit-spaced loads, which
    // still yields a sane monotone fit.
    loads.resize(n_load);
    for (std::size_t i = 0; i < n_load; ++i)
      loads[i] = static_cast<double>(i + 1);
  }

  // Average delay over the non-load axis for each load point.
  std::vector<double> delay(n_load, 0.0);
  for (std::size_t i = 0; i < n_load; ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < n_rows; ++r)
      for (std::size_t c = 0; c < n_cols; ++c) {
        std::size_t axis_pos = cap_axis == 1 ? r : c;
        if (axis_pos != i) continue;
        sum += rows[r][c];
        ++count;
      }
    delay[i] = count ? sum / static_cast<double>(count) : 0.0;
  }
  return fit_block_slope(loads, delay);
}

// ---------------------------------------------------------------------------
// Cell interpretation.
// ---------------------------------------------------------------------------

// One input pin's timing as accumulated from the output pin's timing()
// groups (max over arcs when a pin is named by several).
struct ArcTiming {
  double rise_block = 0, rise_slope = 0;
  double fall_block = 0, fall_slope = 0;
  bool seen = false;

  void merge(double rb, double rs, double fb, double fs) {
    if (!seen) {
      rise_block = rb;
      rise_slope = rs;
      fall_block = fb;
      fall_slope = fs;
      seen = true;
      return;
    }
    rise_block = std::max(rise_block, rb);
    rise_slope = std::max(rise_slope, rs);
    fall_block = std::max(fall_block, fb);
    fall_slope = std::max(fall_slope, fs);
  }
};

// Splits a related_pin value ("A" or "A B C") into pin names.
std::vector<std::string> split_names(const std::string& s) {
  std::vector<std::string> out;
  std::string tok;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!tok.empty()) out.push_back(std::move(tok)), tok.clear();
    } else {
      tok.push_back(c);
    }
  }
  if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

bool is_sequential_cell(const Group& cell) {
  if (cell.subgroup("ff") || cell.subgroup("latch") ||
      cell.subgroup("ff_bank") || cell.subgroup("latch_bank") ||
      cell.subgroup("statetable"))
    return true;
  for (const Group& g : cell.groups) {
    if (g.kind != "pin") continue;
    if (const std::string* clk = g.attr("clock"))
      if (*clk == "true") return true;
  }
  return false;
}

// Interprets one cell() group; returns false when the cell is not a
// usable single-output combinational cell (skipped, not an error).
bool interpret_cell(const Group& cell, const TemplateMap& templates,
                    GenlibGate* out) {
  if (cell.args.empty()) throw ParseError("liberty: cell without a name");
  if (is_sequential_cell(cell)) return false;

  const Group* output_pin = nullptr;
  std::map<std::string, double> input_cap;
  for (const Group& g : cell.groups) {
    if (g.kind != "pin" || g.args.empty()) continue;
    const std::string* dir = g.attr("direction");
    bool has_function = g.attr("function") != nullptr;
    bool is_output = dir ? (*dir == "output") : has_function;
    if (is_output) {
      if (!has_function) return false;  // tri-state / test pins
      if (output_pin) return false;     // multi-output cell
      output_pin = &g;
    } else {
      double cap = 1.0;
      if (const std::string* c = g.attr("capacitance"))
        cap = parse_number(*c, "capacitance");
      input_cap[g.args[0]] = cap;
    }
  }
  if (!output_pin) return false;

  Expr function;
  try {
    function = FunctionParser(*output_pin->attr("function")).parse();
  } catch (const ParseError&) {
    return false;  // exotic function syntax: skip the cell
  }
  std::vector<std::string> vars = expr_variables(function);
  if (vars.empty() || vars.size() > 16) return false;
  for (const std::string& v : vars)
    if (!input_cap.count(v)) {
      // Function references a pin with no pin() group — Liberty allows
      // it in principle; treat as unit load.
      input_cap[v] = 1.0;
    }

  // Timing arcs on the output pin, keyed by related input pin.
  std::map<std::string, ArcTiming> arcs;
  for (const Group& t : output_pin->groups) {
    if (t.kind != "timing") continue;
    double rb = 0, rs = 0, fb = 0, fs = 0;
    bool linear = false;
    if (const std::string* v = t.attr("intrinsic_rise"))
      rb = parse_number(*v, "intrinsic_rise"), linear = true;
    if (const std::string* v = t.attr("intrinsic_fall"))
      fb = parse_number(*v, "intrinsic_fall"), linear = true;
    if (const std::string* v = t.attr("rise_resistance"))
      rs = parse_number(*v, "rise_resistance"), linear = true;
    if (const std::string* v = t.attr("fall_resistance"))
      fs = parse_number(*v, "fall_resistance"), linear = true;
    if (const Group* tab = t.subgroup("cell_rise")) {
      LinearFit f = fit_table(*tab, templates);
      rb = std::max(rb, f.block);
      rs = std::max(rs, f.slope);
      linear = true;
    }
    if (const Group* tab = t.subgroup("cell_fall")) {
      LinearFit f = fit_table(*tab, templates);
      fb = std::max(fb, f.block);
      fs = std::max(fs, f.slope);
      linear = true;
    }
    if (!linear) continue;  // e.g. only transition tables — no delay arc

    std::vector<std::string> related;
    if (const std::string* rp = t.attr("related_pin"))
      related = split_names(*rp);
    if (related.empty()) related = vars;  // arc applies to every input
    for (const std::string& pin : related) arcs[pin].merge(rb, rs, fb, fs);
  }

  // Fallback timing for pins without an arc: the worst arc seen, or the
  // GENLIB defaults when the cell carries no timing at all.
  ArcTiming worst;
  for (const auto& [pin, arc] : arcs)
    worst.merge(arc.rise_block, arc.rise_slope, arc.fall_block,
                arc.fall_slope);
  if (!worst.seen) worst.merge(1.0, 0.0, 1.0, 0.0);

  GenlibGate gate;
  gate.name = cell.args[0];
  if (const std::string* a = cell.attr("area"))
    gate.area = parse_number(*a, "area");
  gate.output_name = output_pin->args.empty() ? "O" : output_pin->args[0];
  gate.function = std::move(function);
  for (const std::string& v : vars) {
    GenlibPin pin;
    pin.name = v;
    pin.phase = GenlibPin::Phase::Unknown;
    pin.input_load = input_cap[v];
    const ArcTiming& arc = arcs.count(v) ? arcs[v] : worst;
    pin.rise_block = arc.rise_block;
    pin.rise_fanout = arc.rise_slope;
    pin.fall_block = arc.fall_block;
    pin.fall_fanout = arc.fall_slope;
    gate.pins.push_back(std::move(pin));
  }
  *out = std::move(gate);
  return true;
}

}  // namespace

bool looks_like_liberty(std::string_view text) {
  try {
    Lexer lex(text);
    Token t = lex.next();
    if (t.kind != Token::Kind::Ident || t.text != "library") return false;
    Token p = lex.next();
    return p.kind == Token::Kind::Punct && p.text == "(";
  } catch (const ParseError&) {
    return false;  // unterminated comment/string before the first token
  }
}

LibertyLibrary parse_liberty(const std::string& text) {
  Group root = GroupParser(text).parse_root();
  LibertyLibrary lib;
  lib.name = root.args.empty() ? "liberty" : root.args[0];
  TemplateMap templates = collect_templates(root);
  for (const Group& g : root.groups) {
    if (g.kind != "cell") continue;
    GenlibGate gate;
    if (interpret_cell(g, templates, &gate))
      lib.gates.push_back(std::move(gate));
    else
      ++lib.cells_skipped;
  }
  if (lib.gates.empty())
    throw ParseError("liberty: no usable combinational cells in library `" +
                     lib.name + "`");
  return lib;
}

LibertyLibrary read_liberty_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("liberty: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_liberty(ss.str());
}

}  // namespace dagmap
