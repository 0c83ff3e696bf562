// Timing model of the three TD-NUCA ISA instructions (paper Sec. III-A/B2).
//
// tdnuca_register / tdnuca_invalidate / tdnuca_flush all perform the same
// iterative virtual-to-physical translation over the dependency's address
// range (one TLB access per page, contiguous frames collapsed); register and
// invalidate then update the RRT (one slot operation per collapsed piece),
// and flush kicks the cache flush engine, whose completion the runtime
// observes by polling the memory-mapped flush-completion register.
#pragma once

#include "common/types.hpp"

namespace tdn::tdnuca {

struct IsaCostConfig {
  Cycle per_rrt_slot = 1;       ///< write/clear one RRT entry
  Cycle issue_overhead = 4;     ///< decode + setup per instruction
  Cycle flush_poll_overhead = 10;  ///< polling loop on the completion register
};

/// Cycles to execute one register or invalidate instruction (both update
/// the RRT) given the number of TLB lookups the range walk performed (caller
/// accumulates real TLB latencies, which include misses) and the number of
/// collapsed pieces.
inline Cycle isa_rrt_cost(const IsaCostConfig& c, Cycle tlb_cycles,
                          unsigned pieces) {
  return c.issue_overhead + tlb_cycles + c.per_rrt_slot * pieces;
}

/// Core-side cost of issuing a flush (the flush itself runs in the cache
/// hierarchy; the runtime then polls the completion register).
inline Cycle isa_flush_issue_cost(const IsaCostConfig& c, Cycle tlb_cycles) {
  return c.issue_overhead + tlb_cycles + c.flush_poll_overhead;
}

}  // namespace tdn::tdnuca
