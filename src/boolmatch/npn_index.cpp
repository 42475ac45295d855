#include "boolmatch/npn_index.hpp"

namespace dagmap {

NpnLibraryIndex::NpnLibraryIndex(const GateLibrary& lib) {
  std::uint32_t gate_index = 0;
  for (const Gate& g : lib.gates()) {
    std::uint32_t i = gate_index++;
    if (g.num_inputs() == 0 || g.num_inputs() > kNpnMaxVars) continue;
    // Every pin must matter, or the pin binding derived from the NPN
    // transform would be ambiguous.
    bool full_support = true;
    for (unsigned v = 0; v < g.num_inputs(); ++v)
      full_support = full_support && g.function.depends_on(v);
    if (!full_support) continue;

    NpnLibEntry e;
    e.gate = &g;
    e.gate_index = i;
    std::uint16_t canon = npn_canonical(pack_tt4(g.function), &e.to_canonical);
    index_[canon].push_back(e);
    ++num_entries_;
  }
}

}  // namespace dagmap
