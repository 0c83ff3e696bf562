// Network timing + traffic accounting.
//
// Messages follow XY routes hop by hop. Per-hop latency is router + link
// delay; each directional link additionally enforces a serialization /
// bandwidth constraint via a busy-until horizon, so bursts (e.g. flush storms)
// experience queuing. The model accounts, per router, the bytes that passed
// through it — the paper's Fig. 12 "data movement" metric is the aggregate of
// those bytes.
//
// A send on a healthy mesh allocates nothing: its route comes from a
// per-(src, dst) table filled at construction, and its delivery callable is
// stored inline (sim::Action). Only the fault path builds route vectors (the
// YX fallback and dog-leg detours) and boxes the callable (dead-link
// retries).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fault/health.hpp"
#include "noc/mesh.hpp"
#include "obs/latency_histogram.hpp"
#include "sim/event_queue.hpp"
#include "stats/counters.hpp"

namespace tdn::noc {

/// Message classes, sized as in a MESI protocol on a 64B-line system:
/// control packets carry address + command; data packets add one line.
enum class MsgClass : std::uint8_t { Control, Data };

struct NetworkConfig {
  Cycle link_latency = 1;
  Cycle router_latency = 1;
  /// 128-bit links (gem5 Garnet default). The suite's memory-bound phases
  /// load the mesh to a level where placement quality shows up in queueing
  /// as well as latency, without making the NoC the sole bottleneck.
  unsigned link_bytes_per_cycle = 16;
  unsigned control_bytes = 8;
  unsigned data_bytes = 72;  ///< 8B header + 64B line
  /// Fault handling: when every deterministic route (XY, the YX fallback,
  /// and the dog-leg detours through src's neighbours) crosses a failed
  /// link, the message backs off dead_link_backoff * (attempt + 1) cycles
  /// and retries, up to dead_link_max_retries attempts before the run is
  /// declared unroutable (TDN_CHECK).
  Cycle dead_link_backoff = 8;
  unsigned dead_link_max_retries = 16;
};

class Network {
 public:
  Network(const Mesh& mesh, sim::EventQueue& eq, NetworkConfig cfg = {});

  /// Send a message; @p deliver runs when the head arrives at @p dst.
  /// src == dst is a local (same-tile) transfer: zero network latency, but
  /// the bytes still count as passing through the one local router.
  /// @p deliver is an inline callable (sim::Action): per-message delivery
  /// state never touches the heap — see sim/inline_function.hpp.
  void send(CoreId src, CoreId dst, MsgClass cls, sim::Action deliver);

  /// Attach the shared resource-health view. Null (the default) keeps
  /// routing on the plain XY path with no per-link checks.
  void set_health(const fault::HealthState* health) { health_ = health; }

  /// Attach per-class transit-latency histogram sinks (obs latency
  /// attribution). Null sinks (the default) cost one pointer test per send.
  void set_transit_sinks(obs::LatencyHistogram* control,
                         obs::LatencyHistogram* data) noexcept {
    transit_sinks_[0] = control;
    transit_sinks_[1] = data;
  }

  unsigned bytes_of(MsgClass cls) const noexcept {
    return cls == MsgClass::Control ? cfg_.control_bytes : cfg_.data_bytes;
  }
  unsigned hops(CoreId a, CoreId b) const { return mesh_.hops(a, b); }

  // --- statistics -----------------------------------------------------
  std::uint64_t total_router_bytes() const noexcept { return router_bytes_; }
  std::uint64_t messages() const noexcept { return messages_.value(); }
  std::uint64_t data_messages() const noexcept { return data_messages_.value(); }
  std::uint64_t router_bytes_at(CoreId tile) const {
    return per_router_bytes_.at(tile);
  }
  std::uint64_t total_hops() const noexcept { return hops_total_; }

  // --- per-link traffic (obs epoch sampler / heatmaps) ------------------
  /// Directional links are indexed (tile, dir) with dir 0=E,1=W,2=N,3=S:
  /// the link leaving @p tile toward that neighbour.
  static constexpr unsigned kLinkDirs = 4;
  static const char* dir_name(unsigned dir) noexcept {
    constexpr const char* names[kLinkDirs] = {"e", "w", "n", "s"};
    return dir < kLinkDirs ? names[dir] : "?";
  }
  /// Whether @p tile has a neighbour in direction @p dir.
  bool has_link(CoreId tile, unsigned dir) const;
  /// Cumulative bytes serialized onto the (tile, dir) link.
  std::uint64_t link_bytes(CoreId tile, unsigned dir) const {
    return link_bytes_.at(tile).at(dir);
  }
  const NetworkConfig& config() const noexcept { return cfg_; }

  // --- checkpoint fold (tdn::ckpt) -------------------------------------
  /// Fold-and-reset all traffic statistics at a quiescent checkpoint
  /// boundary. Link busy-until horizons are left alone: at quiescence
  /// every horizon is <= now, so they never influence post-boundary
  /// timing (the settle grace covers the serialization tail).
  void ckpt_reset_stats() noexcept {
    for (auto& per_dir : link_bytes_) per_dir.fill(0);
    for (auto& b : per_router_bytes_) b = 0;
    router_bytes_ = 0;
    hops_total_ = 0;
    messages_.reset();
    data_messages_.reset();
  }

 private:
  struct Link {
    Cycle next_free = 0;
  };
  /// Direction index (0=E,1=W,2=N,3=S) of the link from @p from to the
  /// adjacent tile @p to.
  unsigned dir_between(CoreId from, CoreId to) const {
    const CoreId w = mesh_.width();
    if (to == from + w) return 3;   // south (y grows downward)
    if (from == to + w) return 2;   // north
    return to == from + 1 ? 0 : 1;  // east : west
  }
  /// The healthy-mesh XY route from @p src to @p dst, endpoints inclusive.
  std::span<const CoreId> xy_path(CoreId src, CoreId dst) const {
    const std::size_t k = std::size_t{src} * mesh_.tiles() + dst;
    return {routes_.data() + route_start_[k],
            route_start_[k + 1] - route_start_[k]};
  }
  /// Whether any link on @p path (hop list, endpoints inclusive) has failed.
  bool path_blocked(std::span<const CoreId> path) const;
  /// The tile adjacent to @p tile in direction @p dir (must exist).
  CoreId neighbor(CoreId tile, unsigned dir) const;
  /// When XY and YX both cross a dead link (src/dst share a row or column),
  /// try dog-leg routes through each healthy neighbour of src. Returns true
  /// and fills @p path with the first fully healthy candidate.
  bool find_detour(CoreId src, CoreId dst, std::vector<CoreId>& path) const;
  void send_attempt(CoreId src, CoreId dst, MsgClass cls,
                    sim::Action&& deliver, unsigned attempt);

  const Mesh& mesh_;
  sim::EventQueue& eq_;
  NetworkConfig cfg_;
  const fault::HealthState* health_ = nullptr;
  std::array<obs::LatencyHistogram*, 2> transit_sinks_{};  ///< [Control, Data]
  /// XY routes of every (src, dst) pair laid end to end; the route of pair
  /// k = src * tiles + dst spans [route_start_[k], route_start_[k + 1]).
  std::vector<CoreId> routes_;
  std::vector<std::uint32_t> route_start_;
  std::vector<std::array<Link, 4>> links_;
  std::vector<std::array<std::uint64_t, kLinkDirs>> link_bytes_;
  std::vector<std::uint64_t> per_router_bytes_;
  std::uint64_t router_bytes_ = 0;
  std::uint64_t hops_total_ = 0;
  stats::Counter messages_;
  stats::Counter data_messages_;
};

}  // namespace tdn::noc
