// Built-in libraries standing in for the MCNC libraries the paper used.
//
// * `lib2_genlib_text()` — a 27-gate general-purpose library modelled on
//   MCNC lib2.genlib: INV, NAND/NOR 2-4, AND/OR, AOI/OAI complexes,
//   XOR/XNOR, MUX.  Intrinsic delays only (the paper's footnote 4 zeroes
//   the load-dependent terms of lib2; we bake that in).
// * `make_44_genlib(level)` — the "4-4" AOI family:
//     level 1 -> 7 gates  (INV, NAND2-4, NOR2-4), matching 44-1.genlib;
//     level 2 -> two-level AOI complexes with at most 2 product groups;
//     level 3 -> 625 gates: every ordered tuple (s1,s2,s3,s4) in {0..4}^4
//                (minus all-zero) as O = !(P1+P2+P3+P4), Pi an AND of si
//                fresh inputs, plus an explicit INV — matching
//                44-3.genlib's gate count, its 16-input maximum gate, and
//                its strict-superset relation to 44-1.
//
// Pin delays follow a logical-effort-style model: a pin in a product
// group of size s within a gate of g groups has intrinsic delay
// 0.7 + 0.15*s + 0.12*g, rounded to two decimals; gate area equals its
// literal count.  Richer
// gates are slower per stage but far faster than the equivalent NAND2
// tree — the property that makes the paper's Table 3 gap appear.
#pragma once

#include <string>
#include <vector>

#include "io/genlib.hpp"
#include "library/gate_library.hpp"

namespace dagmap {

/// GENLIB text of the lib2-like library.
const std::string& lib2_genlib_text();

/// The lib2-like library, ready for mapping.
GateLibrary make_lib2_library();

/// GENLIB gate list of the 44-family library at the given richness level
/// (1, 2 or 3; see file comment).
std::vector<GenlibGate> make_44_genlib(int level);

/// The 44-family library, ready for mapping.  Level 3 has 625 gates.
GateLibrary make_44_library(int level);

/// A minimal {INV, NAND2} library (the weakest complete technology;
/// useful in tests and as a lower bound in library-richness sweeps).
GateLibrary make_minimal_library();

}  // namespace dagmap
