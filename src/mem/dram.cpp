#include "mem/dram.hpp"

#include "common/require.hpp"

namespace tdn::mem {

Cycle MemController::request(Cycle arrival, AccessKind kind) {
  if (kind == AccessKind::Read) reads_.inc();
  else writes_.inc();
  const Cycle start = arrival > next_free_ ? arrival : next_free_;
  if (queue_sink_ != nullptr) queue_sink_->add(start - arrival);
  next_free_ = start + cfg_.service_interval;
  return start + cfg_.access_latency;
}

MemControllers::MemControllers(unsigned count, std::vector<CoreId> attach_tiles,
                               DramConfig cfg)
    : attach_tiles_(std::move(attach_tiles)) {
  TDN_REQUIRE(count > 0, "need at least one memory controller");
  TDN_REQUIRE(attach_tiles_.size() == count,
              "one attach tile per memory controller");
  mcs_.reserve(count);
  for (unsigned i = 0; i < count; ++i) mcs_.emplace_back(cfg);
}

std::uint64_t MemControllers::total_accesses() const noexcept {
  std::uint64_t n = 0;
  for (const auto& m : mcs_) n += m.accesses();
  return n;
}

}  // namespace tdn::mem
