#include "netlist/truth_table.hpp"

#include <algorithm>
#include <bit>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {
// Magic constants for the single-word projection functions of variables
// 0..5: bit m of kVarMask[i] is 1 iff bit i of m is 1.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};
}  // namespace

TruthTable::TruthTable(unsigned num_vars) : num_vars_(num_vars) {
  DAGMAP_ASSERT_MSG(num_vars <= kMaxVars, "truth table too wide");
  words_.assign(num_words(), 0);
}

TruthTable TruthTable::constant(bool value, unsigned num_vars) {
  TruthTable t(num_vars);
  if (value) {
    std::fill(t.words_.begin(), t.words_.end(), ~std::uint64_t{0});
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::variable(unsigned var, unsigned num_vars) {
  DAGMAP_ASSERT(var < num_vars);
  TruthTable t(num_vars);
  if (var < 6) {
    std::fill(t.words_.begin(), t.words_.end(), kVarMask[var]);
  } else {
    // Word w covers minterms [w*64, w*64+64); variable `var` is bit
    // (var-6) of the word index.
    for (std::size_t w = 0; w < t.words_.size(); ++w)
      if ((w >> (var - 6)) & 1) t.words_[w] = ~std::uint64_t{0};
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_bits(std::uint64_t bits, unsigned num_vars) {
  DAGMAP_ASSERT(num_vars <= 6);
  TruthTable t(num_vars);
  t.words_[0] = bits;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_binary_string(const std::string& s) {
  DAGMAP_ASSERT_MSG(std::has_single_bit(s.size()), "length must be 2^n");
  unsigned nv = static_cast<unsigned>(std::countr_zero(s.size()));
  TruthTable t(nv);
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    DAGMAP_ASSERT_MSG(c == '0' || c == '1', "binary string expected");
    // Most significant minterm first: s[0] is minterm 2^nv - 1.
    t.set_bit(s.size() - 1 - i, c == '1');
  }
  return t;
}

TruthTable TruthTable::from_words(unsigned num_vars,
                                  std::vector<std::uint64_t> words) {
  TruthTable t(num_vars);
  DAGMAP_ASSERT_MSG(words.size() == t.num_words(),
                    "truth table word count does not match num_vars");
  t.words_ = std::move(words);
  if (num_vars < 6)
    DAGMAP_ASSERT_MSG((t.words_[0] >> t.num_minterms()) == 0,
                      "truth table tail bits must be zero");
  return t;
}

bool TruthTable::bit(std::size_t m) const {
  DAGMAP_ASSERT(m < num_minterms());
  return (words_[m >> 6] >> (m & 63)) & 1;
}

void TruthTable::set_bit(std::size_t m, bool value) {
  DAGMAP_ASSERT(m < num_minterms());
  std::uint64_t mask = std::uint64_t{1} << (m & 63);
  if (value)
    words_[m >> 6] |= mask;
  else
    words_[m >> 6] &= ~mask;
}

std::size_t TruthTable::count_ones() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool TruthTable::is_const0() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_const1() const { return count_ones() == num_minterms(); }

TruthTable TruthTable::extended_to(unsigned num_vars) const {
  DAGMAP_ASSERT(num_vars >= num_vars_);
  if (num_vars == num_vars_) return *this;
  TruthTable t(num_vars);
  if (num_vars_ <= 6) {
    // Replicate the low 2^num_vars_ bits across a full word, then across
    // all words.
    std::uint64_t w = words_[0];
    for (unsigned v = num_vars_; v < 6 && v < num_vars; ++v)
      w |= w << (std::uint64_t{1} << v);
    std::fill(t.words_.begin(), t.words_.end(), w);
  } else {
    for (std::size_t w = 0; w < t.words_.size(); ++w)
      t.words_[w] = words_[w % words_.size()];
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::permuted(std::span<const unsigned> perm) const {
  DAGMAP_ASSERT(perm.size() == num_vars_);
  TruthTable t(num_vars_);
  for (std::size_t m = 0; m < num_minterms(); ++m) {
    // Build the minterm of the original function corresponding to new
    // minterm m: old variable i reads new variable perm[i].
    std::size_t old_m = 0;
    for (unsigned i = 0; i < num_vars_; ++i)
      if ((m >> perm[i]) & 1) old_m |= std::size_t{1} << i;
    if (bit(old_m)) t.set_bit(m, true);
  }
  return t;
}

TruthTable TruthTable::compose(std::span<const TruthTable> args) const {
  DAGMAP_ASSERT(args.size() == num_vars_);
  unsigned nv = 0;
  for (const auto& a : args) nv = std::max(nv, a.num_vars());
  TruthTable result = TruthTable::constant(false, nv);
  std::vector<TruthTable> ext;
  ext.reserve(args.size());
  for (const auto& a : args) ext.push_back(a.extended_to(nv));
  // Shannon-style evaluation by minterm of the outer function.
  for (std::size_t m = 0; m < num_minterms(); ++m) {
    if (!bit(m)) continue;
    TruthTable term = TruthTable::constant(true, nv);
    for (unsigned i = 0; i < num_vars_; ++i)
      term = ((m >> i) & 1) ? (term & ext[i]) : (term & ~ext[i]);
    result = result | term;
  }
  return result;
}

bool TruthTable::depends_on(unsigned var) const {
  DAGMAP_ASSERT(var < num_vars_);
  return words_depend_on(words_, var);
}

bool TruthTable::words_depend_on(std::span<const std::uint64_t> words,
                                 unsigned var) {
  // Below six, 64 minterms at a time against their partners 2^var up;
  // from six, each block of 2^(var-6) words against the block above.
  if (var < 6)
    return std::any_of(words.begin(), words.end(), [var](std::uint64_t w) {
      return ((w >> (1u << var)) ^ w) & ~kVarMask[var];
    });
  std::size_t block = std::size_t{1} << (var - 6);
  for (std::size_t w = 0; w < words.size(); w += 2 * block)
    if (!std::equal(&words[w], &words[w + block], &words[w + block]))
      return true;
  return false;
}

TruthTable TruthTable::operator~() const {
  TruthTable t = *this;
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  check_compatible(*this, o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  check_compatible(*this, o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  check_compatible(*this, o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
  return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
  return num_vars_ == o.num_vars_ && words_ == o.words_;
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  unsigned nibbles =
      num_vars_ <= 2 ? 1 : static_cast<unsigned>(num_minterms() / 4);
  for (unsigned i = nibbles; i-- > 0;) {
    unsigned word = static_cast<unsigned>(i / 16);
    unsigned shift = (i % 16) * 4;
    s += digits[(words_[word] >> shift) & 0xF];
  }
  return s;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ull * (num_vars_ + 1);
  for (std::uint64_t w : words_) {
    h ^= w + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6)
    words_[0] &= (std::uint64_t{1} << (std::size_t{1} << num_vars_)) - 1;
}

void TruthTable::check_compatible(const TruthTable& a, const TruthTable& b) {
  DAGMAP_ASSERT_MSG(a.num_vars_ == b.num_vars_,
                    "truth tables over different variable counts");
}

}  // namespace dagmap
