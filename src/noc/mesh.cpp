#include "noc/mesh.hpp"

namespace tdn::noc {

void Mesh::append_xy_route(CoreId src, CoreId dst,
                           std::vector<CoreId>& out) const {
  Coord c = coord(src);
  const Coord d = coord(dst);
  out.push_back(tile(c));
  while (c.x != d.x) {  // X first
    c.x += (d.x > c.x) ? 1 : -1;
    out.push_back(tile(c));
  }
  while (c.y != d.y) {  // then Y
    c.y += (d.y > c.y) ? 1 : -1;
    out.push_back(tile(c));
  }
}

std::vector<CoreId> Mesh::yx_route(CoreId src, CoreId dst) const {
  std::vector<CoreId> path;
  Coord c = coord(src);
  const Coord d = coord(dst);
  path.push_back(tile(c));
  while (c.y != d.y) {  // Y first
    c.y += (d.y > c.y) ? 1 : -1;
    path.push_back(tile(c));
  }
  while (c.x != d.x) {  // then X
    c.x += (d.x > c.x) ? 1 : -1;
    path.push_back(tile(c));
  }
  return path;
}

std::vector<CoreId> Mesh::cluster_tiles(unsigned cluster, unsigned cluster_w,
                                        unsigned cluster_h) const {
  std::vector<CoreId> out;
  for (CoreId t = 0; t < tiles(); ++t) {
    if (cluster_of(t, cluster_w, cluster_h) == cluster) out.push_back(t);
  }
  return out;
}

double Mesh::theoretical_mean_distance() const {
  std::uint64_t total = 0;
  const unsigned n = tiles();
  for (CoreId a = 0; a < n; ++a)
    for (CoreId b = 0; b < n; ++b) total += hops(a, b);
  return static_cast<double>(total) / (static_cast<double>(n) * n);
}

}  // namespace tdn::noc
