#include "fault/injector.hpp"

#include <sstream>

#include "coherence/coherent_system.hpp"
#include "common/prng.hpp"
#include "common/require.hpp"
#include "mem/dram.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"

namespace tdn::fault {

namespace {

/// Direction index (0=E,1=W,2=N,3=S) of the link from coordinate @p a to the
/// adjacent coordinate @p b — same convention as noc::Network.
unsigned dir_from_to(const noc::Coord& a, const noc::Coord& b) {
  if (b.x == a.x + 1) return kLinkEast;
  if (a.x == b.x + 1) return kLinkWest;
  if (b.y == a.y + 1) return kLinkSouth;  // y grows downward
  return kLinkNorth;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, FaultConfig cfg, Targets t,
                             unsigned num_banks, unsigned line_size)
    : plan_(std::move(plan)), cfg_(std::move(cfg)), t_(t),
      health_(num_banks, line_size) {
  TDN_REQUIRE(t_.eq != nullptr && t_.mesh != nullptr,
              "fault injector needs an event queue and a mesh");
  const std::string canon = plan_.canonical();
  seed_base_ = fnv1a64(canon.data(), canon.size()) ^ cfg_.seed;
}

void FaultInjector::arm() {
  TDN_REQUIRE(!armed_, "fault injector armed twice");
  armed_ = true;
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent ev = plan_.events()[i];
    ++plan_pending_;
    t_.eq->schedule_at(ev.at, [this, ev, i] { apply(ev, i); });
  }
}

void FaultInjector::arm_from(Cycle resume) {
  TDN_REQUIRE(!armed_, "fault injector armed twice");
  armed_ = true;
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent ev = plan_.events()[i];
    if (ev.at <= resume) {
      replay(ev, resume);
    } else {
      ++plan_pending_;
      t_.eq->schedule_at(ev.at, [this, ev, i] { apply(ev, i); });
    }
  }
}

void FaultInjector::replay(const FaultEvent& ev, Cycle resume) {
  const unsigned n = health_.num_banks();
  switch (ev.kind) {
    case FaultKind::BankFail: {
      const BankId bank = ev.unit % n;
      if (health_.bank_ok(bank)) health_.fail_bank(bank);
      // No evacuation: the rebuilt arrays are cold, and the snapshotted
      // lineage already performed (and accounted) the evacuation flushes.
      break;
    }
    case FaultKind::BankSlow:
      health_.slow_bank(ev.unit % n, ev.factor);
      break;
    case FaultKind::LinkFail:
    case FaultKind::LinkDegrade:
      set_link(ev);
      break;
    case FaultKind::RrtFlip:
    case FaultKind::RrtEvict:
      // Transient soft errors against tables that were cold-cleared at the
      // boundary (and scrubbed long before it): nothing to reconstruct.
      break;
    case FaultKind::DramStall: {
      if (t_.mcs == nullptr) break;
      const unsigned mc = ev.unit % t_.mcs->count();
      // The original event stalled the controller until at + length; only a
      // horizon still in the future can shape post-resume timing.
      if (ev.at + ev.length > resume)
        t_.mcs->mc(mc).inject_stall(ev.at + ev.length);
      ++health_.counters.dram_stalls;
      break;
    }
  }
}

void FaultInjector::set_link(const FaultEvent& ev) {
  const noc::Coord a{ev.ax, ev.ay};
  const noc::Coord b{ev.bx, ev.by};
  TDN_REQUIRE(a.x < t_.mesh->width() && a.y < t_.mesh->height() &&
                  b.x < t_.mesh->width() && b.y < t_.mesh->height(),
              "fault plan: link endpoint outside the mesh");
  const CoreId ta = t_.mesh->tile(a);
  const CoreId tb = t_.mesh->tile(b);
  if (ev.kind == FaultKind::LinkFail) {
    health_.fail_link(ta, dir_from_to(a, b));
    health_.fail_link(tb, dir_from_to(b, a));
  } else {
    health_.degrade_link(ta, dir_from_to(a, b), ev.factor);
    health_.degrade_link(tb, dir_from_to(b, a), ev.factor);
  }
}

void FaultInjector::record(const FaultEvent& ev) {
  if (t_.rec == nullptr || !t_.rec->trace_on()) return;
  std::ostringstream args;
  args << "\"at\":" << ev.at;
  if (ev.factor != 1) args << ",\"factor\":" << ev.factor;
  if (ev.length != 0) args << ",\"len\":" << ev.length;
  t_.rec->instant(obs::Recorder::kFaultTrack, "fault", to_string(ev.kind),
                  args.str());
}

void FaultInjector::apply(const FaultEvent& ev, std::size_t index) {
  TDN_ASSERT(plan_pending_ > 0);
  --plan_pending_;
  SplitMix64 rng(seed_base_ ^ ((index + 1) * 0x9e3779b97f4a7c15ull));
  const unsigned n = health_.num_banks();
  switch (ev.kind) {
    case FaultKind::BankFail: {
      const BankId bank = ev.unit % n;
      if (!health_.bank_ok(bank)) break;  // already dead
      health_.fail_bank(bank);
      // Recovery, in dependency order: future placements avoid the bank
      // (RRT heal + policy health guards), then resident lines are pushed
      // out so no data is stranded behind a dead controller.
      if (t_.tdnuca != nullptr) {
        const BankMask healthy = health_.healthy_banks();
        for (CoreId c = 0; c < n; ++c) {
          const auto res = t_.tdnuca->rrt(c).heal(healthy);
          health_.counters.rrt_entries_narrowed += res.narrowed;
          health_.counters.rrt_entries_dropped += res.erased;
        }
      }
      if (t_.caches != nullptr) t_.caches->evacuate_bank(bank);
      break;
    }
    case FaultKind::BankSlow:
      health_.slow_bank(ev.unit % n, ev.factor);
      break;
    case FaultKind::LinkFail:
    case FaultKind::LinkDegrade:
      set_link(ev);
      break;
    case FaultKind::RrtFlip: {
      if (t_.tdnuca == nullptr) break;
      auto& rrt = t_.tdnuca->rrt(ev.unit % n);
      if (rrt.size() == 0) break;  // soft error hit an empty table
      const unsigned idx =
          static_cast<unsigned>(rng.next_below(rrt.size()));
      const tdnuca::RrtEntry entry = rrt.entries()[idx];
      const unsigned bit = static_cast<unsigned>(rng.next_below(n));
      rrt.corrupt_entry(idx, BankMask(entry.mask.bits() ^ (1ull << bit)));
      ++health_.counters.rrt_corruptions;
      // The runtime detects the parity error after a delay and conservatively
      // scrubs the damaged range from the RRT and every cache.
      scrub_rrt(ev.unit % n, entry.prange);
      break;
    }
    case FaultKind::RrtEvict: {
      if (t_.tdnuca == nullptr) break;
      auto& rrt = t_.tdnuca->rrt(ev.unit % n);
      if (rrt.size() == 0) break;
      const unsigned idx =
          static_cast<unsigned>(rng.next_below(rrt.size()));
      const AddrRange prange = rrt.evict_entry(idx);
      ++health_.counters.rrt_evictions;
      scrub_rrt(ev.unit % n, prange);
      break;
    }
    case FaultKind::DramStall: {
      if (t_.mcs == nullptr) break;
      const unsigned mc = ev.unit % t_.mcs->count();
      t_.mcs->mc(mc).inject_stall(t_.eq->now() + ev.length);
      ++health_.counters.dram_stalls;
      break;
    }
  }
  record(ev);
}

void FaultInjector::scrub_rrt(CoreId core, AddrRange prange) {
  t_.eq->schedule_in(cfg_.rrt_scrub_delay, [this, core, prange] {
    ++health_.counters.rrt_scrubs;
    if (t_.tdnuca != nullptr) {
      // Every core's RRT may alias the range (replicated registrations);
      // dropping the entries falls the addresses back to S-NUCA.
      for (CoreId c = 0; c < health_.num_banks(); ++c)
        t_.tdnuca->rrt(c).invalidate_range(prange);
    }
    if (t_.caches != nullptr) {
      // Conservative recovery: the mis-steered window may have scattered the
      // range across arbitrary banks and private caches; flush it everywhere.
      const BankMask all_banks = BankMask::first_n(health_.num_banks());
      const CoreMask all_cores = CoreMask::first_n(health_.num_banks());
      t_.caches->flush_llc_range(all_banks, prange, [] {});
      t_.caches->flush_l1_range(all_cores, prange, [] {});
    }
  });
}

}  // namespace tdn::fault
