// S-NUCA — the baseline of every figure in the paper: static address
// interleaving of cache blocks across all LLC banks. Mapping and search are
// trivial; capacity is maximal; NUCA distance averages the mesh mean.
#pragma once

#include "common/types.hpp"
#include "nuca/mapping.hpp"

namespace tdn::nuca {

/// The interleaving function, shared by every policy that falls back to
/// static interleaving (S-NUCA itself, RRT misses under TD-NUCA, shared
/// pages under R-NUCA).
inline BankId snuca_bank(Addr paddr, unsigned num_banks,
                         unsigned line_size = 64) {
  return static_cast<BankId>((paddr / line_size) % num_banks);
}

class SNucaPolicy final : public MappingPolicy {
 public:
  explicit SNucaPolicy(unsigned num_banks, unsigned line_size = 64)
      : line_size_(line_size) {
    set_partition(BankMask::first_n(num_banks), CoreMask::first_n(num_banks));
  }

  const char* name() const override { return "S-NUCA"; }

  MapDecision map(CoreId /*core*/, Addr /*vaddr*/, Addr paddr,
                  AccessKind /*kind*/) override {
    return MapDecision::to_bank(
        degrade(interleave_bank(paddr, line_size_), paddr));
  }

 private:
  unsigned line_size_;
};

}  // namespace tdn::nuca
