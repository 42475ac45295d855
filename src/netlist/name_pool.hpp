// Interned string pool for node/instance names.
//
// Graph nodes frequently share names (or have none): the pool stores
// each distinct name once and hands out 32-bit ids.  Id 0 is always the
// empty string, so unnamed nodes cost one integer.  Strings live in a
// deque (elements never move); the intern index is an open-addressed
// table of (hash tag, id) pairs, so interning allocates nothing but the
// string and a copied pool can copy the index as it is.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dagmap {

class NamePool {
 public:
  NamePool() { pool_.emplace_back(); }

  /// Returns the id of `name`, adding it to the pool if new.  The empty
  /// string is always id 0.
  std::uint32_t intern(std::string&& name) {
    if (name.empty()) return 0;
    if (2 * pool_.size() > slots_.size()) rehash(2 * slots_.size());
    std::size_t hash = std::hash<std::string_view>()(name);
    auto tag = static_cast<std::uint32_t>(hash);
    std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == 0) {
        slot = {tag, static_cast<std::uint32_t>(pool_.size())};
        pool_.push_back(std::move(name));
        return slot.id;
      }
      if (slot.tag == tag && pool_[slot.id] == name) return slot.id;
    }
  }

  /// Growth hint for batch interning: pre-sizes the intern index for
  /// about `extra` additional distinct names (the deque needs no help —
  /// its elements never move).  Unnamed nodes are free either way (id 0).
  void reserve(std::size_t extra) { rehash(2 * (pool_.size() + extra)); }

  const std::string& at(std::uint32_t id) const { return pool_[id]; }

  /// Number of distinct names (including the empty string).
  std::size_t size() const { return pool_.size(); }

 private:
  struct Slot {
    std::uint32_t tag = 0;  ///< low 32 bits of the name's hash
    std::uint32_t id = 0;   ///< name id; 0 marks an empty slot
  };

  /// Rebuilds the index with at least `capacity` slots (a power of two).
  /// The tags hold the low hash bits that place a name, so the names are
  /// not hashed again.
  void rehash(std::size_t capacity) {
    std::size_t size = 16;
    while (size < capacity) size *= 2;
    if (size <= slots_.size()) return;
    std::vector<Slot> old(size);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id == 0) continue;
      std::size_t i = slot.tag & (size - 1);
      while (slots_[i].id != 0) i = (i + 1) & (size - 1);
      slots_[i] = slot;
    }
  }

  std::deque<std::string> pool_;
  std::vector<Slot> slots_;
};

}  // namespace dagmap
