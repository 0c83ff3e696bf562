// Memory controller / DRAM timing model.
//
// Each controller serves line-sized requests with a fixed access latency plus
// a bandwidth constraint modeled as a busy-until horizon (one request every
// `service_interval` cycles). Controllers are attached to edge tiles of the
// mesh and lines are address-interleaved across them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/latency_histogram.hpp"
#include "stats/counters.hpp"

namespace tdn::mem {

struct DramConfig {
  Cycle access_latency = 120;   ///< row access + transfer
  Cycle service_interval = 2;   ///< min cycles between request starts per MC
};

class MemController {
 public:
  explicit MemController(DramConfig cfg = {}) : cfg_(cfg) {}

  /// Issue a line read/write arriving at cycle @p arrival.
  /// Returns the cycle at which the data/ack is ready to leave the MC.
  Cycle request(Cycle arrival, AccessKind kind);

  std::uint64_t reads() const noexcept { return reads_.value(); }
  std::uint64_t writes() const noexcept { return writes_.value(); }
  std::uint64_t accesses() const noexcept { return reads() + writes(); }
  /// Cycle until which the controller is committed to already-issued
  /// requests; (busy_until - now) / service_interval is the instantaneous
  /// queue depth the obs epoch sampler reports.
  Cycle busy_until() const noexcept { return next_free_; }
  const DramConfig& config() const noexcept { return cfg_; }

  /// Fault injection (DRAM stall storm): hold the controller busy until
  /// @p until; requests arriving meanwhile queue behind the horizon.
  void inject_stall(Cycle until) {
    if (until > next_free_) next_free_ = until;
  }

  /// Attach a queue-delay histogram sink (obs latency attribution; shared
  /// across controllers). Null (the default) costs one pointer test.
  void set_queue_sink(obs::LatencyHistogram* sink) noexcept {
    queue_sink_ = sink;
  }

 private:
  DramConfig cfg_;
  Cycle next_free_ = 0;
  obs::LatencyHistogram* queue_sink_ = nullptr;
  stats::Counter reads_;
  stats::Counter writes_;
};

/// The set of memory controllers in the system with the line interleaving
/// function and their tile attachment points.
class MemControllers {
 public:
  MemControllers(unsigned count, std::vector<CoreId> attach_tiles,
                 DramConfig cfg = {});

  unsigned count() const noexcept { return static_cast<unsigned>(mcs_.size()); }
  /// Which controller owns the line containing @p paddr.
  unsigned index_for(Addr line_addr) const noexcept {
    return static_cast<unsigned>((line_addr >> 6) % mcs_.size());
  }
  CoreId tile_of(unsigned mc) const { return attach_tiles_.at(mc); }
  MemController& mc(unsigned i) { return mcs_.at(i); }
  const MemController& mc(unsigned i) const { return mcs_.at(i); }

  std::uint64_t total_accesses() const noexcept;

 private:
  std::vector<MemController> mcs_;
  std::vector<CoreId> attach_tiles_;
};

}  // namespace tdn::mem
