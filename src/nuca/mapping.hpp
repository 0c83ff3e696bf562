// NUCA mapping policy interface.
//
// A MappingPolicy answers the two questions every NUCA design must answer
// (paper Sec. II-A): *NUCA Mapping* — which LLC bank serves a given cache
// block for a given requester — and whether the access should bypass the LLC
// entirely. Concrete policies: S-NUCA (snuca.hpp), R-NUCA (rnuca.hpp) and
// TD-NUCA (tdnuca_policy.hpp).
//
// Policies that relocate data at run time (R-NUCA reclassification, TD-NUCA
// dependency remapping) need to flush caches; they do so through the CacheOps
// interface implemented by coherence::CoherentSystem, which is injected after
// construction (set_ops) to break the layering cycle.
#pragma once

#include <functional>
#include <vector>

#include "common/require.hpp"
#include "common/tile_mask.hpp"
#include "common/types.hpp"
#include "fault/health.hpp"

namespace tdn::nuca {

struct MapDecision {
  enum class Kind : std::uint8_t { Bank, Bypass };
  Kind kind = Kind::Bank;
  BankId bank = 0;
  /// Extra cycles the lookup itself cost (e.g. the RRT access, paper
  /// Sec. III-B3: "this operation adds a delay to the private cache misses").
  Cycle lookup_latency = 0;

  static MapDecision to_bank(BankId b, Cycle lat = 0) {
    return MapDecision{Kind::Bank, b, lat};
  }
  static MapDecision bypass(Cycle lat = 0) {
    return MapDecision{Kind::Bypass, kInvalidBank, lat};
  }
};

/// Cache maintenance operations a policy may trigger (flushes on data
/// relocation). Ranges are physical and block-aligned by the caller.
class CacheOps {
 public:
  virtual ~CacheOps() = default;
  /// Write back + invalidate all blocks of @p prange from the private caches
  /// of @p cores. @p done fires when the flush has fully drained.
  virtual void flush_l1_range(CoreMask cores, const AddrRange& prange,
                              std::function<void()> done) = 0;
  /// Write back + invalidate all blocks of @p prange from the given LLC
  /// banks, including back-invalidation of L1 copies they track.
  virtual void flush_llc_range(BankMask banks, const AddrRange& prange,
                               std::function<void()> done) = 0;
};

class MappingPolicy {
 public:
  virtual ~MappingPolicy() = default;

  virtual const char* name() const = 0;

  /// Decide the LLC destination for an L1 miss or writeback issued by
  /// @p core. Called on the critical path of every private-cache miss.
  virtual MapDecision map(CoreId core, Addr vaddr, Addr paddr,
                          AccessKind kind) = 0;

  /// Demand-access hook, called once per L1 *access* (hit or miss) with the
  /// virtual address, before map(); page-table loads never reach it.
  /// OS-based policies use it to run their page classification state
  /// machine. It charges no time: the flushes and TLB shootdowns it starts
  /// carry their own cost.
  virtual void on_access(CoreId /*core*/, Addr /*vaddr*/,
                         AccessKind /*kind*/) {}

  /// Inject the cache-maintenance backend (system::Machine::build gives
  /// every policy the hierarchy's).
  void set_ops(CacheOps* ops) { ops_ = ops; }

  /// Attach the shared resource-health view (fault injection). Null — the
  /// default — keeps every decision on the original, fault-free path.
  void set_health(const fault::HealthState* health) { health_ = health; }

  /// The machine partition this policy instance owns: @p banks are the LLC
  /// banks it may map to, @p cores the cores whose private caches its
  /// relocation flushes may target. S-, R- and TD-NUCA start with the whole
  /// machine; tdn::multi colocation and tdn::serve worker slots narrow it.
  /// Every core's own bank must be in @p banks, so a core's local bank and
  /// quadrant always intersect the partition.
  void set_partition(BankMask banks, CoreMask cores) {
    TDN_REQUIRE(!banks.empty(), "a policy partition needs at least one bank");
    TDN_REQUIRE((cores & banks) == cores,
                "a policy partition's cores must be a subset of its banks");
    partition_ = banks;
    partition_cores_ = cores;
    part_banks_.clear();
    banks.for_each([this](CoreId b) { part_banks_.push_back(b); });
  }
  const BankMask& bank_partition() const noexcept { return partition_; }
  const CoreMask& core_partition() const noexcept { return partition_cores_; }

 protected:
  /// Static-interleave fallback home for @p paddr over the partition's
  /// banks (== snuca_bank for the whole machine).
  BankId interleave_bank(Addr paddr, unsigned line_size = 64) const {
    return part_banks_[(paddr / line_size) % part_banks_.size()];
  }

  /// Degraded-mode guard for a bank choice: identity while the bank is
  /// healthy (or no HealthState is attached); S-NUCA re-interleaving over
  /// the partition's surviving banks once it has failed, so one app's dead
  /// bank never spills its traffic into a co-runner's banks. Over the whole
  /// machine this is HealthState::remap_bank. Only a fully-dead partition
  /// overflows to the global healthy set.
  BankId degrade(BankId bank, Addr paddr) const {
    if (health_ == nullptr || health_->bank_ok(bank)) return bank;
    const BankMask ok = partition_ & health_->healthy_banks();
    if (!ok.empty()) {
      const Addr line = paddr / health_->line_size();
      return ok.nth_bit(static_cast<int>(line % ok.count()));
    }
    return health_->remap_bank(paddr);
  }

  CacheOps* ops_ = nullptr;
  const fault::HealthState* health_ = nullptr;

 private:
  BankMask partition_;
  CoreMask partition_cores_;
  std::vector<BankId> part_banks_;
};

}  // namespace tdn::nuca
