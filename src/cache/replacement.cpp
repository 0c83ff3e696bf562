#include "cache/replacement.hpp"

namespace tdn::cache {

void PseudoLruTree::touch(unsigned way) {
  TDN_ASSERT(way < ways_);
  // Walk from the leaf up: at each internal node set the bit to point to the
  // *other* subtree. Node numbering: root = 1, children of n are 2n, 2n+1.
  unsigned node = (ways_ + way) >> 1;
  unsigned child = ways_ + way;
  while (node >= 1) {
    const bool went_right = (child & 1u) != 0;
    // Bit 0 means "victim is in the left subtree". Point away from `way`.
    if (went_right) bits_ &= ~(1ull << node);
    else bits_ |= (1ull << node);
    child = node;
    node >>= 1;
  }
}

unsigned PseudoLruTree::victim() const {
  TDN_ASSERT(ways_ > 0);
  unsigned node = 1;
  while (node < ways_) {
    const bool right = (bits_ >> node) & 1u;
    node = node * 2 + (right ? 1u : 0u);
  }
  return node - ways_;
}

}  // namespace tdn::cache
