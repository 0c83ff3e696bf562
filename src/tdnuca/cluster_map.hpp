// LLC Cluster Replication geometry (paper Sec. III): the chip is divided
// into quadrants — 4 clusters of 4 tiles on the 4x4 mesh. A replicated
// read-only dependency maps once per cluster; within a cluster its blocks
// are address-interleaved across the 4 banks, selected by the low block
// address bits ("the last two bits of the block address").
#pragma once

#include <vector>

#include "common/require.hpp"
#include "common/tile_mask.hpp"
#include "noc/mesh.hpp"

namespace tdn::tdnuca {

class ClusterMap {
 public:
  explicit ClusterMap(const noc::Mesh& mesh, unsigned cluster_w = 2,
                      unsigned cluster_h = 2)
      : mesh_(&mesh), cw_(cluster_w), ch_(cluster_h) {
    TDN_REQUIRE(mesh.width() % cluster_w == 0 && mesh.height() % cluster_h == 0,
                "clusters must tile the mesh exactly");
    const unsigned n = num_clusters();
    masks_.resize(n);
    for (unsigned c = 0; c < n; ++c)
      for (CoreId b : mesh.cluster_tiles(c, cw_, ch_)) masks_[c].set(b);
  }

  unsigned num_clusters() const {
    return (mesh_->width() / cw_) * (mesh_->height() / ch_);
  }
  unsigned cluster_size() const { return cw_ * ch_; }

  unsigned cluster_of(CoreId tile) const {
    return mesh_->cluster_of(tile, cw_, ch_);
  }

  BankMask mask_of(unsigned cluster) const { return masks_.at(cluster); }

  /// Bank serving @p line_addr among the banks of @p mask, interleaved by
  /// the low block-address bits (the hardware sees only the RRT entry's
  /// mask).
  static BankId bank_for_mask(BankMask mask, Addr line_addr,
                              unsigned line_size = 64) {
    const int n = mask.count();
    TDN_ASSERT(n > 0);
    return mask.nth_bit(static_cast<int>((line_addr / line_size) % n));
  }

 private:
  const noc::Mesh* mesh_;
  unsigned cw_;
  unsigned ch_;
  std::vector<BankMask> masks_;
};

}  // namespace tdn::tdnuca
