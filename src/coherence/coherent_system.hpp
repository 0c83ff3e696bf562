// CoherentSystem — the full cache hierarchy of one tiled CMP:
// per-tile private L1s, a banked shared NUCA LLC with a colocated directory,
// and the coherence protocol connecting them over the NoC.
//
// Protocol: directory-based MESI in the paper's "blocking states, silent
// evictions" style —
//   * L1 lines are S (clean shared) or M (exclusive dirty). Reads install S,
//     writes obtain M via GetX / upgrade. Clean evictions are silent, so the
//     directory may hold stale sharer bits; invalidations to non-holders are
//     acknowledged without data (standard for silent-eviction MESI).
//   * One transaction in flight per block per bank (blocking directory);
//     later requests queue behind it.
//   * The LLC is inclusive: the directory entry lives with the LLC line, and
//     LLC evictions back-invalidate L1 copies.
//   * TD-NUCA bypass transactions go straight to the memory controller and
//     install in the L1 without touching LLC or directory (paper
//     Sec. III-B3); the runtime's eager flushes guarantee exclusivity.
//
// The NUCA mapping policy is consulted on every L1 miss and writeback to pick
// the destination bank (or bypass), exactly where the paper places the RRT
// lookup. Each core maps through its own entry of a per-core policy table:
// every core starts on the constructor's policy, and an app view gives the
// cores of each partition that partition's policy.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/mshr.hpp"
#include "coherence/config.hpp"
#include "common/tile_mask.hpp"
#include "common/types.hpp"
#include "fault/health.hpp"
#include "mem/dram.hpp"
#include "noc/network.hpp"
#include "nuca/mapping.hpp"
#include "sim/event_queue.hpp"
#include "sim/joiner.hpp"
#include "stats/counters.hpp"

namespace tdn::obs {
class Recorder;
class LatencyAttribution;
}

namespace tdn::coherence {

/// Per-line private cache state.
struct L1Meta {
  enum class State : std::uint8_t { S, M };
  State state = State::S;
  bool dirty = false;
  /// Bank the line was served from; kInvalidBank marks an LLC-bypassed line
  /// whose home is memory.
  BankId home = kInvalidBank;
};

/// Per-line LLC state with the colocated directory entry.
struct LlcMeta {
  bool dirty = false;
  CoreId owner = kInvalidCore;  ///< L1 holding the line in M, if any
  CoreMask sharers;             ///< L1s that fetched the line (may be stale)
  /// App that installed the line (tdn::multi occupancy accounting); 0 when
  /// no app view is attached.
  std::uint8_t app = 0;
};

class CoherentSystem final : public nuca::CacheOps {
 public:
  /// @p rec (optional) receives flush spans and coherence-transaction
  /// instants; it observes only and never alters timing.
  CoherentSystem(sim::EventQueue& eq, noc::Network& net, const noc::Mesh& mesh,
                 mem::MemControllers& mcs, nuca::MappingPolicy& policy,
                 HierarchyConfig cfg, unsigned num_cores,
                 obs::Recorder* rec = nullptr);

  // --- core-facing demand path ---------------------------------------
  /// Perform one memory reference. The reference completes when @p done
  /// runs: at once for an L1 hit, otherwise when the fill lands.
  void access(CoreId core, Addr vaddr, Addr paddr, AccessKind kind,
              std::function<void()> done);

  // --- CacheOps (flushes driven by policies / the runtime) ------------
  void flush_l1_range(CoreMask cores, const AddrRange& prange,
                      std::function<void()> done) override;
  void flush_llc_range(BankMask banks, const AddrRange& prange,
                       std::function<void()> done) override;

  // --- fault injection / graceful degradation --------------------------
  /// Attach the shared resource-health view. Null (the default) keeps every
  /// path identical to the fault-free protocol.
  void set_health(const fault::HealthState* health) { health_ = health; }
  /// Drain a failed bank: back-invalidate tracked L1 copies, write dirty
  /// lines to memory and empty the array. Lines with an in-flight
  /// transaction are evacuated when the transaction unblocks.
  void evacuate_bank(BankId bank);

  // --- statistics ------------------------------------------------------
  struct Stats {
    stats::Counter l1_hits;
    stats::Counter l1_misses;
    stats::Counter llc_requests;   ///< GetS+GetX+upgrades arriving at banks
    stats::Counter llc_hits;
    stats::Counter llc_misses;
    stats::Counter llc_writebacks;  ///< PutM arriving at banks
    stats::Counter llc_evictions;
    stats::Counter bypass_reads;
    stats::Counter invalidations_sent;
    stats::Counter flush_l1_lines;
    stats::Counter flush_llc_lines;
    stats::Counter flush_writebacks;
    stats::Counter mshr_stalls;
    stats::Sampled nuca_distance;     ///< hops, demand requests only
    stats::Sampled miss_latency;      ///< cycles from L1 miss to fill
  };
  const Stats& stats() const noexcept { return stats_; }
  /// Total accesses arriving at the LLC banks (requests + writebacks) —
  /// the Fig. 9 metric.
  std::uint64_t llc_accesses() const noexcept {
    return stats_.llc_requests.value() + stats_.llc_writebacks.value();
  }
  double llc_hit_ratio() const noexcept {
    const double h = static_cast<double>(stats_.llc_hits.value());
    const double m = static_cast<double>(stats_.llc_misses.value());
    return (h + m) > 0 ? h / (h + m) : 0.0;
  }
  /// Cycles each core's flush engine spent scanning (Sec. V-E overhead).
  Cycle flush_busy_cycles(CoreId core) const { return l1s_.at(core).flush_busy; }
  std::uint64_t llc_resident_lines() const;
  /// Evictions forced onto a pinned (in-flight) line because every way in
  /// its set was pinned — summed over all L1s and LLC banks. Nonzero values
  /// flag a protocol hazard; see cache::CacheArray::allocate.
  std::uint64_t forced_unsafe_evictions() const;

  /// Per-bank request breakdown — always accounted (it feeds the Registry's
  /// llc.bankN.* keys, the obs epoch sampler and the bank heatmap).
  struct BankCounters {
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
  };
  const BankCounters& bank_counters(BankId bank) const {
    return banks_.at(bank).counters;
  }
  std::uint64_t bank_occupied_lines(BankId bank) const {
    return banks_.at(bank).array.occupied_lines();
  }
  std::uint64_t bank_capacity_lines() const {
    return cfg_.llc_bank.size_bytes / cfg_.llc_bank.line_size;
  }
  /// Misses still in flight in @p core's MSHR file (invariant checking:
  /// must be zero once the simulation has drained).
  std::uint64_t mshr_outstanding(CoreId core) const {
    return l1s_.at(core).mshr.outstanding();
  }
  /// Lines with an open (blocking-directory) transaction at @p bank.
  std::uint64_t bank_blocked_lines(BankId bank) const {
    return banks_.at(bank).open.size();
  }

  unsigned num_cores() const noexcept { return num_cores_; }
  const HierarchyConfig& config() const noexcept { return cfg_; }

  // --- multiprogram view (tdn::multi) ----------------------------------
  /// Attribute each core to the colocated app (or serving slot) whose
  /// partition holds it: app a owns the cores of @p partitions[a], and the
  /// partitions must cover every core exactly once. App a's cores map
  /// through @p policies[a] (one per partition, not owned). Attaching a
  /// view also enables per-app request/hit/miss/writeback counters, the
  /// LlcMeta app tag and per-bank cross-app conflict counting. With no view
  /// attached (the default) every path is bit-identical to the
  /// single-program system.
  void set_app_view(const std::vector<CoreMask>& partitions,
                    const std::vector<nuca::MappingPolicy*>& policies);
  /// From now on the cores of @p app map through @p policy (tdn::serve's
  /// adaptive switch, at dispatch). Lines already cached keep the home
  /// bank their L1 remembers.
  void set_app_policy(unsigned app, nuca::MappingPolicy& policy);

  struct AppCounters {
    std::uint64_t llc_requests = 0;
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t llc_writebacks = 0;
    std::uint64_t bypass_reads = 0;
  };
  /// Apps (or serving slots) in the attached view; 0 with none attached.
  unsigned num_apps() const noexcept {
    return static_cast<unsigned>(app_counters_.size());
  }
  const AppCounters& app_counters(unsigned app) const {
    return app_counters_.at(app);
  }
  /// Times a request found its bank busy servicing (or queued behind) a
  /// request from a *different* app — the interference signal the colocation
  /// benchmarks report per bank and in aggregate.
  std::uint64_t bank_cross_app_conflicts(BankId bank) const {
    return banks_.at(bank).cross_app_conflicts;
  }
  std::uint64_t cross_app_conflicts() const;
  /// LLC lines currently resident that @p app installed (occupancy series).
  std::uint64_t app_resident_lines(unsigned app) const;
  std::uint64_t app_resident_lines(unsigned app, BankId bank) const;

  // --- checkpoint cold-normalization (tdn::ckpt) ------------------------
  /// At a quiescent checkpoint boundary (no in-flight transaction anywhere)
  /// return the hierarchy to its post-construction state: every L1 and LLC
  /// bank array emptied, replacement trees rewound, bank service horizons
  /// and per-bank app affinity cleared. Run in BOTH lineages — the
  /// continuing run and the restored run — so "continue after the
  /// checkpoint" and "rebuild from the snapshot" are the same machine by
  /// construction. Counters are left alone.
  /// Refuses (TDN_REQUIRE) if any MSHR entry or blocked-directory line is
  /// still live: that means quiescence detection was wrong, and snapshotting
  /// would tear a transaction.
  void ckpt_cold_reset() {
    for (auto& l1 : l1s_) {
      TDN_REQUIRE(l1.mshr.outstanding() == 0,
                  "ckpt_cold_reset: MSHR entries still in flight");
      l1.array.reset_all();
    }
    for (auto& bank : banks_) {
      TDN_REQUIRE(bank.open.empty(),
                  "ckpt_cold_reset: blocked directory lines still live");
      bank.array.reset_all();
      bank.next_free = 0;
      bank.last_app = kNoApp;
    }
  }

 private:
  /// An action queued behind an open line (a blocked request, a deferred
  /// flush or evacuation). Nodes are pooled: queueing one allocates only
  /// when the pool grows.
  struct Waiter {
    sim::Action fn;
    Waiter* next = nullptr;
  };
  /// A line with an in-flight transaction at its bank (blocking directory).
  struct OpenLine {
    Addr line = 0;
    unsigned acks = 0;  ///< GetX invalidation acks still outstanding
    Waiter* head = nullptr;  ///< FIFO replayed one by one as each completes
    Waiter* tail = nullptr;
  };
  struct L1 {
    explicit L1(const HierarchyConfig& cfg)
        : array(cfg.l1), mshr(cfg.l1_mshrs) {}
    cache::CacheArray<L1Meta> array;
    cache::MshrFile mshr;
    Cycle flush_busy = 0;
  };
  struct Bank {
    explicit Bank(const HierarchyConfig& cfg) : array(cfg.llc_bank) {}
    cache::CacheArray<LlcMeta> array;
    BankCounters counters;
    Cycle next_free = 0;
    std::uint64_t cross_app_conflicts = 0;  ///< see bank_cross_app_conflicts
    std::uint8_t last_app = 0xff;  ///< app of the last accepted request
    /// Blocking directory: the lines with an in-flight transaction. Few
    /// are open at once, so lookup is a scan.
    std::vector<OpenLine> open;
  };

  Addr line_of(Addr a) const { return align_down(a, cfg_.l1.line_size); }
  static OpenLine* find_open(Bank& b, Addr line) {
    for (OpenLine& o : b.open)
      if (o.line == line) return &o;
    return nullptr;
  }
  /// Queue @p fn behind the in-flight transaction on @p o's line.
  void wait_on(OpenLine& o, sim::Action&& fn);

  void access_internal(CoreId core, Addr vaddr, Addr paddr, AccessKind kind,
                       std::function<void()> done, bool replay);
  void start_miss(CoreId core, Addr vaddr, Addr line, AccessKind kind,
                  Cycle issued_at, std::function<void()> done);
  /// (Re-)register a prepared on_fill callback with @p core's MSHR file,
  /// launching the transaction on NewEntry and backing off on Full. The
  /// callback is never dropped: MshrFile guarantees it is left intact on
  /// Outcome::Full, and this helper re-queues it until it registers.
  void register_miss_or_retry(CoreId core, Addr vaddr, Addr line,
                              AccessKind kind, Cycle issued_at,
                              cache::MshrFile::Callback&& on_fill);
  /// Hand the callbacks waiting on @p line in @p core's MSHR file to the
  /// queue, in registration order, and free the entry.
  void replay_mshr(CoreId core, Addr line);
  void launch_transaction(CoreId core, Addr vaddr, Addr line, AccessKind kind,
                          Cycle issued_at);
  /// Home bank for page-table lines (vaddr >= kKernelBase): static
  /// interleave over all banks, degraded to the healthy set under faults —
  /// kernel structures never route through the workload-facing policies.
  nuca::MapDecision kernel_map(Addr line) const;
  void bank_request(BankId bank, CoreId requester, Addr line, AccessKind kind);
  void bank_respond_read(BankId bank, CoreId requester, Addr line);
  void bank_respond_write(BankId bank, CoreId requester, Addr line);
  /// Grant M to @p requester once every invalidation ack is in.
  void bank_grant_write(BankId bank, CoreId requester, Addr line);
  void bank_fetch_from_memory(BankId bank, CoreId requester, Addr line,
                              AccessKind kind);
  void bank_install(BankId bank, CoreId requester, Addr line);
  /// A line leaves @p bank (capacity eviction or evacuation): the inclusive
  /// LLC back-invalidates its L1 copies, whose owners write dirty data
  /// straight to memory, and a dirty LLC copy goes to memory too.
  void displace_line(BankId bank, Addr la, const LlcMeta& m);
  void bank_unblock(BankId bank, Addr line);
  void bank_writeback(BankId bank, CoreId from, Addr line);

  /// Install a fill in the requester's L1 and replay merged misses.
  void l1_fill(CoreId core, Addr line, L1Meta meta);
  /// Evict an L1 victim (writeback if dirty).
  void l1_evict_victim(CoreId core, Addr line, const L1Meta& meta);
  /// Handle an invalidation arriving at an L1 (from GetX or back-inval).
  /// Returns true if a dirty copy was written back.
  bool l1_invalidate(CoreId core, Addr line, bool writeback_to_memory);

  void bypass_fetch(CoreId core, Addr line, AccessKind kind, Cycle issued_at);
  void memory_writeback(CoreId from_tile, Addr line);
  /// Bounce a request that reached a dead bank onto the healthy-set home,
  /// releasing this bank's block on the line.
  void bounce_request(BankId bank, CoreId requester, Addr line,
                      AccessKind kind);
  void evacuate_line(BankId bank, Addr la, const LlcMeta& m);
  void flush_llc_line_now(BankId bank, Addr la, const LlcMeta& m,
                          const std::shared_ptr<sim::Joiner>& join,
                          Cycle delay);
  /// Shared prologue of the two flush engines: the join @p done fires from
  /// and the cycles the engine scans @p prange for. Under tracing @p done
  /// also closes a @p span on the flush track that carries the flush's true
  /// duration, its @p units count (labelled @p unit) and its line count.
  struct FlushStart {
    std::shared_ptr<sim::Joiner> join;
    Cycle scan_cycles;
  };
  FlushStart begin_flush(const char* span, const char* unit, int units,
                         const AddrRange& prange, std::function<void()> done);

  sim::EventQueue& eq_;
  noc::Network& net_;
  const noc::Mesh& mesh_;
  mem::MemControllers& mcs_;
  HierarchyConfig cfg_;
  unsigned num_cores_;
  obs::Recorder* rec_;
  /// Latency-attribution sink; null unless the recorder enables it. Stamp
  /// sites are single null tests and never alter timing (docs §attribution).
  obs::LatencyAttribution* attr_;
  const fault::HealthState* health_ = nullptr;

  static constexpr std::uint8_t kNoApp = 0xff;
  std::uint8_t app_of(CoreId core) const {
    return core_app_.empty() ? kNoApp : core_app_[core];
  }

  std::vector<L1> l1s_;
  std::vector<Bank> banks_;
  std::vector<std::unique_ptr<Waiter[]>> waiter_chunks_;  ///< Waiter pool
  Waiter* free_waiters_ = nullptr;
  Stats stats_;
  std::vector<nuca::MappingPolicy*> core_policy_;  ///< core id -> policy
  std::vector<std::uint8_t> core_app_;  ///< core id -> app; empty = no view
  std::vector<AppCounters> app_counters_;
};

}  // namespace tdn::coherence
