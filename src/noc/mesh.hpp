// 2D mesh topology: tile numbering, coordinates, Manhattan (NUCA) distance
// and deterministic XY (dimension-ordered) routes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"

namespace tdn::noc {

struct Coord {
  unsigned x = 0;
  unsigned y = 0;
  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

class Mesh {
 public:
  Mesh(unsigned width, unsigned height) : w_(width), h_(height) {
    TDN_REQUIRE(width > 0 && height > 0, "mesh dimensions must be positive");
  }

  unsigned width() const noexcept { return w_; }
  unsigned height() const noexcept { return h_; }
  unsigned tiles() const noexcept { return w_ * h_; }

  Coord coord(CoreId tile) const {
    TDN_ASSERT(tile < tiles());
    return Coord{tile % w_, tile / w_};
  }
  CoreId tile(Coord c) const {
    TDN_ASSERT(c.x < w_ && c.y < h_);
    return c.y * w_ + c.x;
  }

  /// Manhattan hop count — the paper's "NUCA distance" (local bank = 0).
  unsigned hops(CoreId a, CoreId b) const {
    const Coord ca = coord(a);
    const Coord cb = coord(b);
    const unsigned dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const unsigned dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    return dx + dy;
  }

  /// Tiles on the XY route from src to dst, inclusive of both endpoints.
  std::vector<CoreId> xy_route(CoreId src, CoreId dst) const {
    std::vector<CoreId> path;
    append_xy_route(src, dst, path);
    return path;
  }
  /// Append the XY route from src to dst (both endpoints) to @p out.
  void append_xy_route(CoreId src, CoreId dst, std::vector<CoreId>& out) const;

  /// Tiles on the YX (Y-dimension first) route from src to dst, inclusive of
  /// both endpoints. The deterministic fallback route when a link on the XY
  /// path has failed.
  std::vector<CoreId> yx_route(CoreId src, CoreId dst) const;

  /// The quadrant cluster (paper Sec. III "LLC Cluster Replication"):
  /// the mesh is divided into (w/2 x h/2)-aligned 2x2 quadrants on a 4x4
  /// mesh. Returns the cluster index of a tile.
  unsigned cluster_of(CoreId tile, unsigned cluster_w = 2,
                      unsigned cluster_h = 2) const {
    const Coord c = coord(tile);
    const unsigned clusters_per_row = w_ / cluster_w;
    return (c.y / cluster_h) * clusters_per_row + (c.x / cluster_w);
  }

  /// Tiles belonging to a cluster, ascending.
  std::vector<CoreId> cluster_tiles(unsigned cluster, unsigned cluster_w = 2,
                                    unsigned cluster_h = 2) const;

  /// Theoretical mean hop distance from a uniformly random tile to a
  /// uniformly random tile (2.5 on a 4x4 mesh; paper Sec. V-B).
  double theoretical_mean_distance() const;

 private:
  unsigned w_;
  unsigned h_;
};

}  // namespace tdn::noc
