// Bit-parallel simulation and combinational equivalence checking.
//
// Every mapping step in this library is validated by simulation: a mapped
// netlist must behave exactly like its subject graph, and a subject graph
// like the network it decomposes.  Simulation is 64-way bit-parallel;
// equivalence checking is exhaustive up to 16 primary inputs and uses
// seeded random vectors beyond that.
//
// Sequential circuits are checked combinationally: latch outputs are
// treated as extra inputs and latch D signals as extra outputs, which is
// exactly the transformation under which mapping must preserve behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace dagmap {

/// One 64-vector simulation pass.  `source_words[i]` drives the i-th
/// combinational source in order: first all primary inputs, then all latch
/// outputs.  Returns the words of all primary outputs followed by all
/// latch D inputs.
std::vector<std::uint64_t> simulate64(const Network& net,
                                      std::span<const std::uint64_t> source_words);

/// Widest logic node `eval_logic` evaluates by Shannon reduction; wider
/// ones take the per-lane loop (2^16 word muxes would lose to 64 lanes).
inline constexpr std::size_t kShannonMaxInputs = 8;

/// Value of a logic node's truth table `f` on 64 input vectors at once:
/// lane L of the result is f at the minterm whose bit i is lane L of
/// `fanin_words[i]` (one word per variable of f).
std::uint64_t eval_logic(const TruthTable& f,
                         std::span<const std::uint64_t> fanin_words);

/// `eval_logic` one lane at a time: 64 truth-table lookups.
std::uint64_t eval_logic_lanes(const TruthTable& f,
                               std::span<const std::uint64_t> fanin_words);

/// `eval_logic` by Shannon mux reduction over whole words: 2^k - 1 muxes
/// for k inputs, in `scratch` (at least 2^k words).
std::uint64_t eval_logic_shannon(const TruthTable& f,
                                 std::span<const std::uint64_t> fanin_words,
                                 std::span<std::uint64_t> scratch);

/// Result of an equivalence check; `counterexample` is meaningful only
/// when `equivalent` is false (one bit per source, same order as
/// simulate64's inputs, word-packed: source i lives in bit i%64 of word
/// i/64 — networks with more than 64 combinational sources get as many
/// words as they need).
struct EquivalenceResult {
  bool equivalent = true;
  std::vector<std::uint64_t> counterexample;  ///< source assignment words
  std::size_t failing_output = 0;  ///< index in the simulate64 output order

  /// Value of source `i` in the counterexample assignment.
  bool source_bit(std::size_t i) const {
    return i / 64 < counterexample.size() &&
           ((counterexample[i / 64] >> (i % 64)) & 1) != 0;
  }

  /// Hex rendering of the assignment, most-significant word first
  /// (e.g. "0x2_0000000000000001" for sources 0 and 65).
  std::string counterexample_hex() const;
};

/// Checks combinational equivalence of two networks with identical
/// interfaces (same number/order of PIs, POs and latches; names must
/// match for PIs and POs).  Exhaustive when the number of sources is at
/// most `exhaustive_limit`, otherwise `random_rounds` rounds of 64 random
/// vectors each (seeded, deterministic).
EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    unsigned exhaustive_limit = 14,
                                    unsigned random_rounds = 64,
                                    std::uint64_t seed = 0x5EEDF00Dull);

/// Truth table of output `output_index` over the primary inputs (requires
/// a combinational network with at most 16 PIs).
TruthTable output_truth_table(const Network& net, std::size_t output_index);

}  // namespace dagmap
