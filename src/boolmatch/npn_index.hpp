// Shared NPN library index: canonical cut function -> matching gates.
//
// Both Boolean mappers — the exhaustive-cut ablation (bool_mapper.cpp)
// and the mapping driver's cut source (core/dag_mapper.cpp) — answer the same
// query: which library gates implement this cut function up to input
// negation/permutation and output negation, and through which transform?
// This index canonicalizes every eligible gate function once (1..4
// inputs, full support — a vacuous pin would make the pin binding
// ambiguous) and buckets the gates by canonical representative, in
// library order so lookups are deterministic.
//
// Construction normally runs npn_canonical per gate (768 transforms).
// When the caller already knows each gate's canonical representative —
// the compiled-library cache stores NPN classes — `canonical_hint` short
// circuits the scan with an early-exiting npn_transform_to search
// (libcache/compiled_library.hpp's npn_index_from_compiled builds the
// hint vector).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "boolmatch/npn.hpp"
#include "library/gate_library.hpp"

namespace dagmap {

/// One indexed gate: the gate plus the transform from its (padded)
/// function to the canonical representative —
/// npn_apply(pack_tt4(gate->function), to_canonical) == bucket key.
struct NpnLibEntry {
  const Gate* gate = nullptr;
  std::uint32_t gate_index = 0;  ///< position in the library's gate list
  NpnTransform to_canonical;
};

class NpnLibraryIndex {
 public:
  /// Hint value for gates whose canonical form is unknown (or that the
  /// hint provider could not canonicalize).
  static constexpr std::uint32_t kNoHint = 0xFFFFFFFFu;

  /// Indexes the eligible gates of `lib` (which must outlive the index).
  /// `canonical_hint`, when non-empty, must have one entry per library
  /// gate: the gate function's NPN-canonical 16-bit table, or kNoHint.
  explicit NpnLibraryIndex(const GateLibrary& lib,
                           std::span<const std::uint32_t> canonical_hint = {});

  /// Gates whose function is NPN-equivalent to the canonical key, in
  /// library order; null when the class is empty.
  const std::vector<NpnLibEntry>* find(std::uint16_t canonical) const {
    auto it = index_.find(canonical);
    return it == index_.end() ? nullptr : &it->second;
  }

  /// Total indexed gates (statistics).
  std::size_t num_entries() const { return num_entries_; }

  /// Distinct canonical classes (statistics).
  std::size_t num_classes() const { return index_.size(); }

 private:
  std::unordered_map<std::uint16_t, std::vector<NpnLibEntry>> index_;
  std::size_t num_entries_ = 0;
};

}  // namespace dagmap
