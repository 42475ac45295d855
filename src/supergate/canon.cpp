#include "supergate/canon.hpp"

#include <cassert>

#include "boolmatch/npn.hpp"
#include "netlist/truth_table.hpp"

namespace dagmap {

namespace {

/// Replicates the valid low 2^num_vars bits up to 16 bits (the padding
/// convention of pack_tt4: extra variables are don't-cares).
std::uint16_t pack16(std::uint64_t tt, unsigned num_vars) {
  std::uint64_t t = tt;
  for (unsigned n = num_vars; n < kNpnMaxVars; ++n) t |= t << (1u << n);
  return static_cast<std::uint16_t>(t);
}

}  // namespace

CanonKey canon_key(std::uint64_t tt, unsigned num_vars) {
  assert(num_vars <= 6);
  if (num_vars <= kNpnMaxVars) {
    return CanonKey{npn_canonical(pack16(tt, num_vars)), kNpnMaxVars};
  }
  std::uint64_t mask = num_vars == 6
                           ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << (1u << num_vars)) - 1;
  return CanonKey{tt & mask, num_vars};
}

}  // namespace dagmap
