// The one BLIF tokenizer: logical lines of a BLIF text as views.
//
// Both BLIF readers — the generic network reader (io/blif.hpp) and the
// mapped-netlist reader (mapnet/write.hpp) — split their input here, so
// they agree on comments, continuations and whitespace, and intern the
// names they read here.  Every token is a view of the text, so the text
// must outlive the tokens and the names.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace dagmap {

/// Logical lines of a BLIF text: strips `#` comments, joins lines ending
/// in `\`, splits on whitespace and skips lines with no tokens.  A line
/// is joined with a space at each continuation, so its tokens are the
/// tokens of its physical pieces.
class BlifLines {
 public:
  explicit BlifLines(std::string_view text) : text_(text) {}

  /// Reads the next non-empty logical line into `toks`; false at the end.
  bool next(std::vector<std::string_view>& toks) {
    toks.clear();
    while (pos_ < text_.size()) {
      std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
      std::string_view raw = text_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
      raw = raw.substr(0, raw.find('#'));
      while (!raw.empty() && is_space(raw.back())) raw.remove_suffix(1);
      bool cont = !raw.empty() && raw.back() == '\\';
      if (cont) raw.remove_suffix(1);
      for (std::size_t i = 0; i < raw.size();) {
        if (is_space(raw[i])) {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < raw.size() && !is_space(raw[j])) ++j;
        toks.push_back(raw.substr(i, j - i));
        i = j;
      }
      if (!cont && !toks.empty()) return true;
    }
    return !toks.empty();
  }

  /// Position to return to with `seek` (one line of lookahead).
  std::size_t tell() const { return pos_; }
  void seek(std::size_t pos) { pos_ = pos; }

 private:
  /// The C locale's whitespace, whatever the process locale is.
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Dense ids for the names of a text, interned by view: the i-th distinct
/// name gets id i.  An open-addressed table of (hash tag, id) pairs, so
/// interning a name costs one hash and, on a hit, one comparison — no
/// node allocation, and growing never rereads the names.
class BlifNames {
 public:
  /// The id of `name`, assigned on first sight.
  std::uint32_t intern(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) grow();
    std::size_t hash = std::hash<std::string_view>()(name);
    auto tag = static_cast<std::uint32_t>(hash);
    std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == 0) {
        names_.push_back(name);
        slot = {tag, static_cast<std::uint32_t>(names_.size())};
        return slot.id - 1;
      }
      if (slot.tag == tag && names_[slot.id - 1] == name) return slot.id - 1;
    }
  }

  std::string_view name(std::uint32_t id) const { return names_[id]; }

 private:
  struct Slot {
    std::uint32_t tag = 0;  ///< low 32 bits of the name's hash
    std::uint32_t id = 0;   ///< id + 1; 0 marks an empty slot
  };

  /// Doubles the table; the tags hold the low hash bits that place a
  /// name (tables stay below 2^32 slots).
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == 0) continue;
      std::size_t i = slot.tag & mask;
      while (slots_[i].id != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<std::string_view> names_;
  std::vector<Slot> slots_;
};

}  // namespace dagmap
