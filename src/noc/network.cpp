#include "noc/network.hpp"

#include <array>
#include <memory>

#include "common/require.hpp"

namespace tdn::noc {

Network::Network(const Mesh& mesh, sim::EventQueue& eq, NetworkConfig cfg)
    : mesh_(mesh), eq_(eq), cfg_(cfg), links_(mesh.tiles()),
      link_bytes_(mesh.tiles(), {0, 0, 0, 0}),
      per_router_bytes_(mesh.tiles(), 0) {
  TDN_REQUIRE(cfg_.link_bytes_per_cycle > 0, "link bandwidth must be positive");
  const unsigned n = mesh.tiles();
  route_start_.reserve(std::size_t{n} * n + 1);
  for (CoreId src = 0; src < n; ++src) {
    for (CoreId dst = 0; dst < n; ++dst) {
      route_start_.push_back(static_cast<std::uint32_t>(routes_.size()));
      mesh.append_xy_route(src, dst, routes_);
    }
  }
  route_start_.push_back(static_cast<std::uint32_t>(routes_.size()));
}

bool Network::has_link(CoreId tile, unsigned dir) const {
  const Coord c = mesh_.coord(tile);
  switch (dir) {
    case 0: return c.x + 1 < mesh_.width();
    case 1: return c.x > 0;
    case 2: return c.y > 0;
    case 3: return c.y + 1 < mesh_.height();
  }
  return false;
}

bool Network::path_blocked(std::span<const CoreId> path) const {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!health_->link_ok(path[i], dir_between(path[i], path[i + 1])))
      return true;
  }
  return false;
}

CoreId Network::neighbor(CoreId tile, unsigned dir) const {
  Coord c = mesh_.coord(tile);
  switch (dir) {
    case 0: ++c.x; break;
    case 1: --c.x; break;
    case 2: --c.y; break;
    case 3: ++c.y; break;
  }
  return mesh_.tile(c);
}

bool Network::find_detour(CoreId src, CoreId dst,
                          std::vector<CoreId>& path) const {
  // X-Y and Y-X coincide when src and dst share a row or column, so a dead
  // link between neighbours defeats both. Dog-leg through each healthy
  // neighbour of src (fixed direction order keeps routing deterministic)
  // and take the first fully healthy path.
  for (unsigned dir = 0; dir < 4; ++dir) {
    if (!has_link(src, dir) || !health_->link_ok(src, dir)) continue;
    const CoreId w = neighbor(src, dir);
    for (const bool yx : {false, true}) {
      auto tail = yx ? mesh_.yx_route(w, dst) : mesh_.xy_route(w, dst);
      std::vector<CoreId> cand;
      cand.reserve(tail.size() + 1);
      cand.push_back(src);
      cand.insert(cand.end(), tail.begin(), tail.end());
      if (!path_blocked(cand)) {
        path = std::move(cand);
        return true;
      }
    }
  }
  return false;
}

void Network::send(CoreId src, CoreId dst, MsgClass cls, sim::Action deliver) {
  send_attempt(src, dst, cls, std::move(deliver), 0);
}

void Network::send_attempt(CoreId src, CoreId dst, MsgClass cls,
                           sim::Action&& deliver, unsigned attempt) {
  std::span<const CoreId> path = xy_path(src, dst);
  std::vector<CoreId> detour;  // fault path only
  if (health_ != nullptr && health_->any_link_failed() && path_blocked(path)) {
    detour = mesh_.yx_route(src, dst);
    if (!path_blocked(detour) || find_detour(src, dst, detour)) {
      ++health_->counters.noc_reroutes;
      path = detour;
    } else {
      // Every known route crosses a dead link (a cut through the mesh).
      // Back off and retry a bounded number of times; the bound turns a
      // silent livelock into a diagnosable failure.
      TDN_CHECK(attempt < cfg_.dead_link_max_retries,
                "message cannot route around failed links");
      ++health_->counters.noc_retries;
      // An Action cannot nest inside another Action of the same capacity;
      // box it for the (rare, fault-only) backoff. This and the detour
      // vectors are the only allocations on the message path, and happen
      // only when links have failed.
      auto boxed = std::make_shared<sim::Action>(std::move(deliver));
      eq_.schedule_in(cfg_.dead_link_backoff * (attempt + 1),
                      [this, src, dst, cls, boxed, attempt] {
                        send_attempt(src, dst, cls, std::move(*boxed),
                                     attempt + 1);
                      });
      return;
    }
  }
  const unsigned bytes = bytes_of(cls);
  messages_.inc();
  if (cls == MsgClass::Data) data_messages_.inc();

  // Every router the message traverses (including src and dst) moves the
  // payload through its crossbar once.
  for (const CoreId t : path) {
    per_router_bytes_[t] += bytes;
    router_bytes_ += bytes;
  }
  hops_total_ += path.size() - 1;

  const Cycle start = eq_.now();
  Cycle t = start;
  const Cycle serialization =
      (bytes + cfg_.link_bytes_per_cycle - 1) / cfg_.link_bytes_per_cycle;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const unsigned dir = dir_between(path[i], path[i + 1]);
    Link& link = links_[path[i]][dir];
    link_bytes_[path[i]][dir] += bytes;
    const Cycle depart = t > link.next_free ? t : link.next_free;
    // A bandwidth-degraded link serializes the same bytes over a longer
    // occupancy window (the degradation factor).
    Cycle occupancy = serialization;
    if (health_ != nullptr)
      occupancy *= health_->link_factor(path[i], dir);
    link.next_free = depart + occupancy;
    t = depart + cfg_.router_latency + cfg_.link_latency;
  }
  if (auto* sink = transit_sinks_[static_cast<unsigned>(cls) & 1])
    sink->add(t - start);
  if (t == start) {
    // Local delivery in the same cycle would re-enter the caller's stack;
    // defer by zero cycles through the queue to keep ordering uniform.
    eq_.schedule_in(0, std::move(deliver));
  } else {
    eq_.schedule_at(t, std::move(deliver));
  }
}

}  // namespace tdn::noc
