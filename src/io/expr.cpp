#include "io/expr.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "netlist/assert.hpp"

namespace dagmap {

Expr Expr::make_var(std::string name) {
  Expr e;
  e.op = Op::Var;
  e.var = std::move(name);
  return e;
}

Expr Expr::make_not(Expr inner) {
  // Collapse double negation eagerly; it keeps pattern graphs small.
  if (inner.op == Op::Not) return std::move(inner.operands[0]);
  Expr e;
  e.op = Op::Not;
  e.operands.push_back(std::move(inner));
  return e;
}

Expr Expr::make_and(std::vector<Expr> ops) {
  DAGMAP_ASSERT(!ops.empty());
  if (ops.size() == 1) return std::move(ops[0]);
  Expr e;
  e.op = Op::And;
  // Flatten nested ANDs so the AST is canonical n-ary.
  for (Expr& o : ops) {
    if (o.op == Op::And)
      for (Expr& c : o.operands) e.operands.push_back(std::move(c));
    else
      e.operands.push_back(std::move(o));
  }
  return e;
}

Expr Expr::make_or(std::vector<Expr> ops) {
  DAGMAP_ASSERT(!ops.empty());
  if (ops.size() == 1) return std::move(ops[0]);
  Expr e;
  e.op = Op::Or;
  for (Expr& o : ops) {
    if (o.op == Op::Or)
      for (Expr& c : o.operands) e.operands.push_back(std::move(c));
    else
      e.operands.push_back(std::move(o));
  }
  return e;
}

Expr Expr::make_const(bool value) {
  Expr e;
  e.op = value ? Op::Const1 : Op::Const0;
  return e;
}

std::size_t Expr::size() const {
  std::size_t n = 1;
  for (const Expr& o : operands) n += o.size();
  return n;
}

namespace {

class ExprParser {
 public:
  explicit ExprParser(const std::string& text) : text_(text) {}

  Expr parse() {
    Expr e = parse_or();
    skip_ws();
    if (pos_ != text_.size())
      throw ParseError("trailing characters in expression: '" +
                       text_.substr(pos_) + "'");
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool starts_factor() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    return c == '(' || c == '!' ||
           std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '[' || c == '<';
  }

  Expr parse_or() {
    std::vector<Expr> terms;
    terms.push_back(parse_and());
    while (peek_is('+') || peek_is('|')) {
      ++pos_;
      terms.push_back(parse_and());
    }
    return Expr::make_or(std::move(terms));
  }

  Expr parse_and() {
    std::vector<Expr> factors;
    factors.push_back(parse_factor());
    for (;;) {
      if (peek_is('*') || peek_is('&')) {
        ++pos_;
        factors.push_back(parse_factor());
      } else if (starts_factor()) {
        factors.push_back(parse_factor());  // juxtaposition
      } else {
        break;
      }
    }
    return Expr::make_and(std::move(factors));
  }

  // Every nesting level — a prefix '!' or a parenthesis — passes here.
  Expr parse_factor() {
    if (++depth_ > kMaxExprNesting)
      throw ParseError("expression nesting too deep (more than " +
                       std::to_string(kMaxExprNesting) + " levels)");
    Expr e = parse_unary();
    --depth_;
    return e;
  }

  Expr parse_unary() {
    skip_ws();
    if (pos_ >= text_.size()) throw ParseError("unexpected end of expression");
    if (text_[pos_] == '!') {
      ++pos_;
      return Expr::make_not(parse_factor());
    }
    Expr atom = parse_atom();
    while (peek_is('\'')) {  // postfix complement
      ++pos_;
      atom = Expr::make_not(std::move(atom));
    }
    return atom;
  }

  Expr parse_atom() {
    skip_ws();
    if (pos_ >= text_.size()) throw ParseError("unexpected end of expression");
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      Expr e = parse_or();
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ')')
        throw ParseError("missing ')'");
      ++pos_;
      return e;
    }
    // Identifier / constant.  GENLIB pin names may contain [], <>, digits.
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char d = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' ||
          d == '[' || d == ']' || d == '<' || d == '>' || d == '.')
        ++pos_;
      else
        break;
    }
    if (pos_ == start)
      throw ParseError(std::string("unexpected character '") + c + "'");
    std::string name = text_.substr(start, pos_ - start);
    if (name == "0" || name == "CONST0") return Expr::make_const(false);
    if (name == "1" || name == "CONST1") return Expr::make_const(true);
    return Expr::make_var(std::move(name));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void collect_vars(const Expr& e, std::vector<std::string>& out) {
  if (e.op == Expr::Op::Var) {
    if (std::find(out.begin(), out.end(), e.var) == out.end())
      out.push_back(e.var);
    return;
  }
  for (const Expr& o : e.operands) collect_vars(o, out);
}

std::string to_string_prec(const Expr& e, int parent_prec) {
  // Precedence: Or = 1, And = 2, Not/atom = 3.
  switch (e.op) {
    case Expr::Op::Const0: return "CONST0";
    case Expr::Op::Const1: return "CONST1";
    case Expr::Op::Var: return e.var;
    case Expr::Op::Not:
      return "!" + to_string_prec(e.operands[0], 3);
    case Expr::Op::And: {
      std::string s;
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) s += "*";
        s += to_string_prec(e.operands[i], 2);
      }
      return parent_prec > 2 ? "(" + s + ")" : s;
    }
    case Expr::Op::Or: {
      std::string s;
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) s += "+";
        s += to_string_prec(e.operands[i], 1);
      }
      return parent_prec > 1 ? "(" + s + ")" : s;
    }
  }
  return "?";
}

}  // namespace

Expr parse_expression(const std::string& text) {
  return ExprParser(text).parse();
}

std::string to_string(const Expr& e) { return to_string_prec(e, 0); }

std::vector<std::string> expr_variables(const Expr& e) {
  std::vector<std::string> vars;
  collect_vars(e, vars);
  return vars;
}

TruthTable expr_truth_table(const Expr& e,
                            const std::vector<std::string>& vars) {
  unsigned nv = static_cast<unsigned>(vars.size());
  DAGMAP_ASSERT_MSG(nv <= TruthTable::kMaxVars, "too many gate inputs");
  switch (e.op) {
    case Expr::Op::Const0: return TruthTable::constant(false, nv);
    case Expr::Op::Const1: return TruthTable::constant(true, nv);
    case Expr::Op::Var: {
      auto it = std::find(vars.begin(), vars.end(), e.var);
      DAGMAP_ASSERT_MSG(it != vars.end(), "unbound variable " + e.var);
      return TruthTable::variable(
          static_cast<unsigned>(it - vars.begin()), nv);
    }
    case Expr::Op::Not: return ~expr_truth_table(e.operands[0], vars);
    case Expr::Op::And: {
      TruthTable t = TruthTable::constant(true, nv);
      for (const Expr& o : e.operands) t = t & expr_truth_table(o, vars);
      return t;
    }
    case Expr::Op::Or: {
      TruthTable t = TruthTable::constant(false, nv);
      for (const Expr& o : e.operands) t = t | expr_truth_table(o, vars);
      return t;
    }
  }
  return {};
}

}  // namespace dagmap
