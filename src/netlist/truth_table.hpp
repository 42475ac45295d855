// Dense truth tables for Boolean functions of up to 16 variables.
//
// Truth tables are the functional representation attached to generic logic
// nodes in a `Network` and to library gates.  Sixteen variables is the
// fan-in bound of the richest library the paper uses (44-3.genlib's largest
// gate has 16 inputs), so a dense bit-vector representation stays small
// (<= 8 KiB) while supporting exact equality, composition, and evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dagmap {

/// Dense truth table over `num_vars()` Boolean variables (0..16).
///
/// Bit `m` of the table is the function value on the input minterm `m`,
/// where variable `i` contributes bit `i` of `m` (variable 0 is the least
/// significant).  Tables of zero variables represent constants.
class TruthTable {
 public:
  /// Maximum supported variable count (the 44-3 library's largest gate).
  static constexpr unsigned kMaxVars = 16;

  /// Constructs the constant-0 function of zero variables.
  TruthTable() : num_vars_(0), words_(1, 0) {}

  /// Constructs the constant-0 function of `num_vars` variables.
  explicit TruthTable(unsigned num_vars);

  /// The constant function `value` of `num_vars` variables.
  static TruthTable constant(bool value, unsigned num_vars = 0);

  /// The projection function returning variable `var` among `num_vars`.
  static TruthTable variable(unsigned var, unsigned num_vars);

  /// Builds a table directly from the low `2^num_vars` bits of `bits`
  /// (convenient for functions of <= 6 variables).
  static TruthTable from_bits(std::uint64_t bits, unsigned num_vars);

  /// Parses a binary string, most significant minterm first, e.g. "0110"
  /// is XOR of two variables.  Length must be a power of two <= 2^16.
  static TruthTable from_binary_string(const std::string& s);

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_minterms() const { return std::size_t{1} << num_vars_; }

  /// Value of the function on minterm `m` (bit `i` of `m` = variable `i`).
  bool bit(std::size_t m) const;
  void set_bit(std::size_t m, bool value);

  /// Evaluates on an input assignment given as a bit mask (same encoding
  /// as `bit`, provided for readability at call sites).
  bool evaluate(std::size_t input_mask) const { return bit(input_mask); }

  /// Number of minterms on which the function is 1.
  std::size_t count_ones() const;

  bool is_const0() const;
  bool is_const1() const;

  /// Re-expresses the function over a larger variable set; the existing
  /// variables keep their indices, new variables are don't-cares.
  TruthTable extended_to(unsigned num_vars) const;

  /// Function with inputs permuted: result(x_0..x_{n-1}) =
  /// this(x_{perm[0]}, ..., x_{perm[n-1]}), i.e. `perm[i]` names the new
  /// variable feeding old input `i`.  `perm` must be a permutation.
  TruthTable permuted(std::span<const unsigned> perm) const;

  /// Functional composition: substitutes `args[i]` (all over a common
  /// variable set) for variable `i` of this table.
  TruthTable compose(std::span<const TruthTable> args) const;

  /// True if the function depends on variable `var`.
  bool depends_on(unsigned var) const;

  /// Word-parallel body of `depends_on` over a raw table laid out as
  /// `words()` returns it (tail bits zero), for code that keeps tables
  /// in scratch buffers (decomp/isop.cpp).  `var` must be below the
  /// table's variable count.
  static bool words_depend_on(std::span<const std::uint64_t> words,
                              unsigned var);

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const;

  /// Hexadecimal rendering (most significant word first), for debugging
  /// and for deduplicating gates by function.
  std::string to_hex() const;

  /// Raw 64-bit words, least significant minterms first (bit m of the
  /// function is bit (m & 63) of word (m >> 6)).  Exposed for bit-exact
  /// binary serialization (libcache); the tail beyond 2^num_vars bits is
  /// always zero.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Rebuilds a table from `words` as produced by `words()`.  The word
  /// count must match `num_vars` (1 word for <= 6 variables, 2^(n-6)
  /// otherwise) and tail bits beyond 2^num_vars must be zero; violations
  /// throw.  Inverse of `words()` — round-trips bit-exactly.
  static TruthTable from_words(unsigned num_vars,
                               std::vector<std::uint64_t> words);

  /// 64-bit hash of (num_vars, table bits).
  std::uint64_t hash() const;

 private:
  std::size_t num_words() const {
    return num_vars_ <= 6 ? 1 : (std::size_t{1} << (num_vars_ - 6));
  }
  void mask_tail();
  static void check_compatible(const TruthTable& a, const TruthTable& b);

  unsigned num_vars_;
  std::vector<std::uint64_t> words_;
};

}  // namespace dagmap
