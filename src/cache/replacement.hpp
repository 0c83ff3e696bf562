// Tree pseudo-LRU replacement state for one cache set, as used by the
// paper's LLC configuration ("16-way, pseudoLRU"). The tree is a perfect
// binary tree of direction bits over a power-of-two number of ways.
#pragma once

#include <cstdint>

#include "common/require.hpp"

namespace tdn::cache {

class PseudoLruTree {
 public:
  explicit PseudoLruTree(unsigned ways = 0) { reset(ways); }

  void reset(unsigned ways) {
    TDN_REQUIRE(ways == 0 || (ways & (ways - 1)) == 0,
                "pseudo-LRU requires a power-of-two way count");
    ways_ = ways;
    bits_ = 0;
  }

  unsigned ways() const noexcept { return ways_; }

  /// Mark @p way most-recently used: flip the bits on the root-to-leaf path
  /// to point *away* from it.
  void touch(unsigned way);

  /// The way the tree currently points at (the pseudo-least-recently used).
  unsigned victim() const;

 private:
  unsigned ways_ = 0;
  std::uint64_t bits_ = 0;  // node i's bit; root is node 1
};

}  // namespace tdn::cache
