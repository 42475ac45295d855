#include "library/standard_libs.hpp"

#include <cmath>

#include "netlist/assert.hpp"

namespace dagmap {

const std::string& lib2_genlib_text() {
  // Areas are literal counts; delays are intrinsic-only (rise = fall).
  // The gate set mirrors MCNC lib2.genlib's families: simple NAND/NOR
  // ladders, AND/OR, two-level AOI/OAI complexes, XOR/XNOR and a MUX.
  // Fanout slopes (the 8th/10th PIN fields) follow lib2's style; the
  // mappers ignore them (footnote 4) but the load-aware timing and
  // buffering passes (§5 discussion) use them.
  static const std::string text = R"(
# lib2-like general purpose library
GATE inv     1 O=!a;             PIN * INV 1 999 1.0 0.2 1.0 0.2
GATE buf     2 O=a;              PIN * NONINV 1 999 1.0 0.15 1.0 0.15
GATE nand2   2 O=!(a*b);         PIN * INV 1 999 1.2 0.25 1.2 0.25
GATE nand3   3 O=!(a*b*c);       PIN * INV 1 999 1.4 0.3 1.4 0.3
GATE nand4   4 O=!(a*b*c*d);     PIN * INV 1 999 1.6 0.35 1.6 0.35
GATE nor2    2 O=!(a+b);         PIN * INV 1 999 1.4 0.3 1.4 0.3
GATE nor3    3 O=!(a+b+c);       PIN * INV 1 999 1.8 0.35 1.8 0.35
GATE nor4    4 O=!(a+b+c+d);     PIN * INV 1 999 2.2 0.4 2.2 0.4
GATE and2    3 O=a*b;            PIN * NONINV 1 999 1.6 0.2 1.6 0.2
GATE and3    4 O=a*b*c;          PIN * NONINV 1 999 1.8 0.2 1.8 0.2
GATE and4    5 O=a*b*c*d;        PIN * NONINV 1 999 2.0 0.2 2.0 0.2
GATE or2     3 O=a+b;            PIN * NONINV 1 999 1.8 0.2 1.8 0.2
GATE or3     4 O=a+b+c;          PIN * NONINV 1 999 2.2 0.2 2.2 0.2
GATE or4     5 O=a+b+c+d;        PIN * NONINV 1 999 2.6 0.2 2.6 0.2
GATE aoi21   3 O=!(a*b+c);       PIN * INV 1 999 1.6 0.3 1.6 0.3
GATE aoi22   4 O=!(a*b+c*d);     PIN * INV 1 999 1.8 0.3 1.8 0.3
GATE aoi211  4 O=!(a*b+c+d);     PIN * INV 1 999 2.0 0.3 2.0 0.3
GATE aoi221  5 O=!(a*b+c*d+e);   PIN * INV 1 999 2.2 0.3 2.2 0.3
GATE aoi222  6 O=!(a*b+c*d+e*f); PIN * INV 1 999 2.4 0.3 2.4 0.3
GATE oai21   3 O=!((a+b)*c);     PIN * INV 1 999 1.6 0.3 1.6 0.3
GATE oai22   4 O=!((a+b)*(c+d)); PIN * INV 1 999 1.8 0.3 1.8 0.3
GATE oai211  4 O=!((a+b)*c*d);   PIN * INV 1 999 2.0 0.3 2.0 0.3
GATE oai221  5 O=!((a+b)*(c+d)*e); PIN * INV 1 999 2.2 0.3 2.2 0.3
GATE oai222  6 O=!((a+b)*(c+d)*(e+f)); PIN * INV 1 999 2.4 0.3 2.4 0.3
GATE xor2    5 O=a*!b+!a*b;      PIN * UNKNOWN 1 999 2.2 0.3 2.2 0.3
GATE xnor2   5 O=a*b+!a*!b;      PIN * UNKNOWN 1 999 2.2 0.3 2.2 0.3
GATE mux21   5 O=s*a+!s*b;       PIN * UNKNOWN 1 999 2.0 0.3 2.0 0.3
GATE nand2b  3 O=!(!a*b);        PIN * UNKNOWN 1 999 1.4 0.25 1.4 0.25
)";
  return text;
}

GateLibrary make_lib2_library() {
  return GateLibrary::from_genlib_text(lib2_genlib_text(), "lib2-like");
}

namespace {

// Builds the AOI gate O = !(P1 + ... + Pg), Pi = AND of sizes[i] fresh
// pins named a, b, c, ...  A single group of one literal degenerates to
// an inverter.
GenlibGate make_aoi_gate(const std::vector<int>& sizes, int gate_index) {
  int total = 0, groups = 0;
  for (int s : sizes) {
    total += s;
    if (s > 0) ++groups;
  }
  DAGMAP_ASSERT(total >= 1 && total <= 16);

  std::vector<Expr> products;
  int pin = 0;
  std::string gate_name = "aoi";
  for (int s : sizes) {
    if (s == 0) continue;
    gate_name += std::to_string(s);
    std::vector<Expr> lits;
    for (int i = 0; i < s; ++i) {
      lits.push_back(Expr::make_var(std::string(1, static_cast<char>('a' + pin))));
      ++pin;
    }
    products.push_back(Expr::make_and(std::move(lits)));
  }

  GenlibGate g;
  g.name = gate_name + "_" + std::to_string(gate_index);
  g.area = static_cast<double>(total);
  g.output_name = "O";
  g.function = Expr::make_not(Expr::make_or(std::move(products)));

  // One PIN entry per pin; the delay depends on its group's size and the
  // number of groups (series stack depth + parallel branching).
  pin = 0;
  for (int s : sizes) {
    for (int i = 0; i < s; ++i) {
      GenlibPin p;
      p.name = std::string(1, static_cast<char>('a' + pin));
      p.phase = GenlibPin::Phase::Inv;
      // Rounded to the two decimals write_genlib prints, so the
      // in-memory gates and every GENLIB or artifact copy of them carry
      // the same doubles (0.7 + 0.15 + 0.24 is 1.0899999999999999).
      double d = std::round((0.7 + 0.15 * s + 0.12 * groups) * 100) / 100;
      p.rise_block = p.fall_block = d;
      p.rise_fanout = p.fall_fanout = 0.0;
      g.pins.push_back(std::move(p));
      ++pin;
    }
  }
  return g;
}

GenlibGate make_inv_gate() {
  GenlibGate g;
  g.name = "inv";
  g.area = 1.0;
  g.output_name = "O";
  g.function = Expr::make_not(Expr::make_var("a"));
  GenlibPin p;
  p.name = "a";
  p.phase = GenlibPin::Phase::Inv;
  p.rise_block = p.fall_block = 0.9;
  g.pins.push_back(std::move(p));
  return g;
}

}  // namespace

std::vector<GenlibGate> make_44_genlib(int level) {
  DAGMAP_ASSERT_MSG(level >= 1 && level <= 3, "44-library level must be 1..3");
  std::vector<GenlibGate> gates;
  gates.push_back(make_inv_gate());
  int index = 0;

  if (level == 1) {
    // NAND2..4 (one group of k) and NOR2..4 (k groups of one).
    for (int k = 2; k <= 4; ++k) gates.push_back(make_aoi_gate({k}, ++index));
    for (int k = 2; k <= 4; ++k)
      gates.push_back(make_aoi_gate(std::vector<int>(k, 1), ++index));
    return gates;  // 7 gates
  }

  if (level == 2) {
    // All ordered tuples (s1, s2) with s1 in 1..4, s2 in 0..4, skipping
    // the bare inverter tuple (1).
    for (int s1 = 1; s1 <= 4; ++s1)
      for (int s2 = 0; s2 <= 4; ++s2) {
        if (s1 == 1 && s2 == 0) continue;  // inverter already present
        gates.push_back(make_aoi_gate({s1, s2}, ++index));
      }
    return gates;
  }

  // Level 3: every ordered tuple (s1,s2,s3,s4) in {0..4}^4 except
  // all-zero: 624 AOI gates + INV = 625 gates, the paper's count.
  for (int s1 = 0; s1 <= 4; ++s1)
    for (int s2 = 0; s2 <= 4; ++s2)
      for (int s3 = 0; s3 <= 4; ++s3)
        for (int s4 = 0; s4 <= 4; ++s4) {
          if (s1 + s2 + s3 + s4 == 0) continue;
          gates.push_back(make_aoi_gate({s1, s2, s3, s4}, ++index));
        }
  return gates;
}

GateLibrary make_44_library(int level) {
  return GateLibrary::from_genlib(make_44_genlib(level),
                                  "44-" + std::to_string(level) + "-like");
}

GateLibrary make_minimal_library() {
  return GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1.0 0 1.0 0\n"
      "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1.2 0 1.2 0\n",
      "minimal");
}

}  // namespace dagmap
