// Boolean expression ASTs and the GENLIB expression grammar.
//
// GENLIB gate functions ("O = a*b + !c;") are parsed into a small n-ary
// AST which the library module later decomposes into NAND2/INV pattern
// graphs.  The grammar accepted is a superset of SIS's:
//   expr   := term (('+' | '|') term)*
//   term   := factor (('*' | '&')? factor)*        (juxtaposition = AND)
//   factor := atom | '!' factor | atom '\''
//   atom   := identifier | '0' | '1' | CONST0 | CONST1 | '(' expr ')'
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/truth_table.hpp"

namespace dagmap {

/// Node of a Boolean expression tree.  `And`/`Or` are n-ary (>= 2
/// operands); `Not` has exactly one; `Var` is a leaf naming an input pin.
struct Expr {
  enum class Op : std::uint8_t { Var, Not, And, Or, Const0, Const1 };

  Op op = Op::Const0;
  std::string var;                    ///< leaf name (Op::Var only)
  std::vector<Expr> operands;         ///< children (Not/And/Or)

  static Expr make_var(std::string name);
  static Expr make_not(Expr e);
  static Expr make_and(std::vector<Expr> ops);
  static Expr make_or(std::vector<Expr> ops);
  static Expr make_const(bool value);

  /// Number of nodes in the tree (for complexity accounting).
  std::size_t size() const;
};

/// Parses a GENLIB-style Boolean expression.  Throws ParseError on
/// malformed input.
Expr parse_expression(const std::string& text);

/// Renders an expression in GENLIB syntax (AND as '*', OR as '+', NOT as
/// '!', fully parenthesized only where required).
std::string to_string(const Expr& e);

/// Distinct variable names in order of first occurrence (the pin order of
/// a GENLIB gate).
std::vector<std::string> expr_variables(const Expr& e);

/// Evaluates the expression as a truth table over `vars` (every variable
/// of `e` must appear in `vars`; extra entries become don't-care inputs).
TruthTable expr_truth_table(const Expr& e,
                            const std::vector<std::string>& vars);

/// Error raised by the readers on malformed input files.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest nesting of parentheses and prefix `!` the expression readers
/// (GENLIB and Liberty functions) accept; deeper input is a ParseError
/// ("nesting too deep") rather than a stack overflow.  Real gate
/// functions, supergates included, nest a few dozen levels at most.
inline constexpr int kMaxExprNesting = 256;

}  // namespace dagmap
