#include "tdnuca/runtime_hooks.hpp"

#include <sstream>

#include "common/require.hpp"
#include "core/sim_core.hpp"
#include "obs/recorder.hpp"
#include "sim/joiner.hpp"

namespace tdn::tdnuca {

/// The ISA instructions one hook charges its core, laid back-to-back: the
/// cycles charged so far and one trace span per charge. The spans start at
/// now() and advance by exactly the cycles the core will be charged
/// (core.busy runs them sequentially), so they reproduce the timeline
/// without touching the cost arithmetic. Off the trace the span arguments
/// are never formatted.
struct TdNucaRuntimeHooks::IsaTimeline {
  IsaTimeline(obs::Recorder* recorder, CoreId core_id)
      : rec(recorder != nullptr && recorder->trace_on() ? recorder : nullptr),
        core(core_id), base(rec != nullptr ? rec->now() : 0) {}

  bool tracing() const { return rec != nullptr; }

  void charge(const char* name, Cycle cost, std::string args = {}) {
    if (rec != nullptr && cost > 0)
      rec->span(core, "isa", name, base + cycles, cost, std::move(args));
    cycles += cost;
  }

  /// Arguments of an instruction that translated a dependency range.
  std::string dep_args(DepId dep, const Translated& tr,
                       const char* placement = nullptr) const {
    if (rec == nullptr) return std::string();
    std::ostringstream os;
    os << "\"dep\":" << dep << ",\"tlb_cycles\":" << tr.tlb_cycles
       << ",\"pieces\":" << tr.pieces.size();
    if (placement != nullptr) os << ",\"placement\":\"" << placement << "\"";
    return os.str();
  }

  /// Arguments of an end-of-task instruction on a placed dependency.
  std::string pd_args(const PlacedDep& pd) const {
    if (rec == nullptr) return std::string();
    std::ostringstream os;
    os << "\"dep\":" << pd.dep << ",\"pages\":" << pd.pages
       << ",\"pieces\":" << pd.pieces.size();
    return os.str();
  }

  obs::Recorder* rec;  ///< null unless tracing
  CoreId core;
  Cycle base;
  Cycle cycles = 0;
};

TdNucaRuntimeHooks::TdNucaRuntimeHooks(nuca::TdNucaPolicy& policy,
                                       mem::PageTable& pt, Variant variant,
                                       unsigned line_size,
                                       HookCounters& counters,
                                       HooksConfig cfg, obs::Recorder* rec)
    : policy_(policy), pt_(pt), variant_(variant), line_size_(line_size),
      cfg_(cfg), rec_(rec), counts_(counters) {}

void TdNucaRuntimeHooks::on_task_created(const runtime::Task& task) {
  TDN_REQUIRE(rts_ != nullptr, "set_runtime() must be called first");
  // UseDesc: one increment per use of the dependency by a created task.
  for (const runtime::DepAccess& a : task.deps) {
    DirEntry& e = dir_.entry(a.dep, rts_->dep(a.dep).vrange);
    ++e.use_desc;
    // The runtime knows dependency regions are accessed as units — the
    // madvise-like huge-page hint per region at creation time is the vm
    // integration point the paper's runtime-driven story implies
    // (docs/memory.md). No-op unless vm runs with ThpPolicy::Madvise.
    pt_.advise_huge(rts_->dep(a.dep).vrange);
  }
}

TdNucaRuntimeHooks::Translated TdNucaRuntimeHooks::translate_dep(
    const AddrRange& vrange, core::SimCore& core) {
  Translated out;
  // Alignment rule (paper Sec. III-D): only blocks entirely inside the
  // dependency are managed; partial first/last blocks fall back to S-NUCA.
  const AddrRange eff{align_up(vrange.begin, line_size_),
                      align_down(vrange.end, line_size_)};
  if (eff.empty()) return out;
  auto tr = pt_.translate_range(eff);
  out.pieces = std::move(tr.physical_pieces);
  out.pages = tr.pages_walked;
  // The iterative translation performs one TLB access per page of the range
  // (paper Fig. 5); misses pay the page-walk cost through the MMU — flat
  // penalty in legacy mode, a charged walk (with real PTE loads fired into
  // the hierarchy) under tdn::vm. Stepping by the mapped page span is what
  // collapses the iteration count under huge pages.
  const Addr ps = pt_.page_size();
  for (Addr va = align_down(eff.begin, ps); va < eff.end;) {
    out.tlb_cycles += core.mmu().charge_translation(va);
    va = pt_.page_base(va) + pt_.page_span(va);
  }
  counts_.translate_pages += out.pages;
  counts_.translate_cycles += out.tlb_cycles;
  return out;
}

TdNucaRuntimeHooks::Translated TdNucaRuntimeHooks::register_dep(
    IsaTimeline& tl, DepId dep, const AddrRange& vrange, core::SimCore& core,
    BankMask mask, const char* placement) {
  Translated tr = translate_dep(vrange, core);
  tl.charge("tdnuca_register",
            isa_rrt_cost(cfg_.isa, tr.tlb_cycles,
                         static_cast<unsigned>(tr.pieces.size())),
            tl.dep_args(dep, tr, placement));
  for (const AddrRange& piece : tr.pieces)
    policy_.rrt(core.id()).register_range(piece, mask);
  return tr;
}

void TdNucaRuntimeHooks::clear_rrts(CoreMask cores,
                                    const std::vector<AddrRange>& pieces) {
  cores.for_each([&](CoreId c) {
    for (const AddrRange& piece : pieces)
      policy_.rrt(c).invalidate_range(piece);
  });
}

void TdNucaRuntimeHooks::flush_finished(DepId dep) {
  auto it = sync_.find(dep);
  TDN_ASSERT(it != sync_.end() && it->second.pending > 0);
  if (--it->second.pending == 0) {
    auto waiters = std::move(it->second.waiters);
    it->second.waiters.clear();
    for (auto& w : waiters) w();
  }
}

bool TdNucaRuntimeHooks::quiescent() const {
  if (!active_.empty()) return false;
  for (const auto& [dep, s] : sync_) {
    (void)dep;
    if (s.pending > 0 || !s.waiters.empty()) return false;
  }
  return true;
}

std::uint64_t TdNucaRuntimeHooks::pending_flushes() const {
  std::uint64_t n = 0;
  for (const auto& [dep, s] : sync_) {
    (void)dep;
    n += s.pending;
  }
  return n;
}

void TdNucaRuntimeHooks::when_clean(
    const std::vector<runtime::DepAccess>& deps, std::function<void()> fn) {
  for (const auto& a : deps) {
    auto it = sync_.find(a.dep);
    if (it != sync_.end() && it->second.pending > 0) {
      // Poll again once this dependency's flushes drain; re-check the rest.
      it->second.waiters.push_back(
          [this, &deps, fn = std::move(fn)]() mutable {
            when_clean(deps, std::move(fn));
          });
      return;
    }
  }
  fn();
}

void TdNucaRuntimeHooks::before_task(runtime::Task& task, core::SimCore& core,
                                     std::function<void()> done) {
  TDN_REQUIRE(rts_ != nullptr, "set_runtime() must be called first");
  // The runtime polls the flush-completion register for any in-flight flush
  // of this task's dependencies before re-registering them.
  when_clean(task.deps,
             [this, &task, &core, done = std::move(done)]() mutable {
               before_task_clean(task, core, std::move(done));
             });
}

void TdNucaRuntimeHooks::before_task_clean(runtime::Task& task,
                                           core::SimCore& core,
                                           std::function<void()> done) {
  const CoreId cid = core.id();
  // A dry run takes every decision and keeps the directory, but executes no
  // instruction.
  const bool run_isa = variant_ != Variant::DryRun;
  nuca::CacheOps* ops = policy_.ops();
  TDN_REQUIRE(!run_isa || ops != nullptr,
              "policy must be wired to a cache system");

  IsaTimeline tl(rec_, cid);
  tl.charge("decision", cfg_.decision_overhead * task.deps.size(),
            tl.tracing() ? "\"deps\":" + std::to_string(task.deps.size())
                         : std::string());
  auto join = sim::make_joiner(std::move(done));
  std::vector<PlacedDep> placed;
  placed.reserve(task.deps.size());

  for (const runtime::DepAccess& a : task.deps) {
    const runtime::Dependency& d = rts_->dep(a.dep);
    DirEntry& e = dir_.entry(a.dep, d.vrange);
    TDN_ASSERT(e.use_desc > 0);
    --e.use_desc;  // this task starts executing now
    if (a.reads()) e.ever_in = true;
    if (a.writes()) e.ever_out = true;

    // --- Fig. 7 placement decision ------------------------------------
    // UseDesc == 0 predicts the data is not reused by any visible task.
    // Bypass applies only when the dependency was never visibly reused:
    // reused data is LLC-resident (locally mapped or replicated), and
    // sending its final use to memory would refetch resident lines from
    // DRAM (see DirEntry::seen_visible_reuse).
    const bool predicted_dead = (e.use_desc == 0);
    if (predicted_dead) e.ever_predicted_dead = true;
    else e.seen_visible_reuse = true;
    Placement p;
    if (predicted_dead && !e.seen_visible_reuse) p = Placement::Bypass;
    else if (a.writes()) p = Placement::LocalBank;
    else p = Placement::Replicated;
    if (variant_ == Variant::BypassOnly && p != Placement::Bypass)
      p = Placement::Unmapped;

    // --- degraded-mode placement guard ---------------------------------
    // Never pin a dependency to a failed bank: local-bank placement on a
    // dead local bank and replication into a fully-dead cluster both fall
    // back to S-NUCA interleaving over the healthy set.
    if (health_ != nullptr && health_->any_bank_failed()) {
      if (p == Placement::LocalBank &&
          !health_->bank_ok(cid)) {
        p = Placement::Unmapped;
      } else if (p == Placement::Replicated) {
        if ((policy_.replication_mask(cid) & health_->healthy_banks())
                .empty())
          p = Placement::Unmapped;
      }
    }

    PlacedDep pd{a.dep, p, BankMask::none(), {}, 0};
    if (p == Placement::LocalBank) {
      pd.mask = BankMask::single(cid);
    } else if (p == Placement::Replicated) {
      // Replicate only over the cluster's surviving banks (the guard
      // above ensures at least one remains).
      pd.mask = policy_.replication_mask(cid);
      if (health_ != nullptr && health_->any_bank_failed())
        pd.mask = pd.mask & health_->healthy_banks();
    }

    if (run_isa) {
      // --- lazy read-only invalidation (Sec. III-C2) -------------------
      // A replicated dependency that is about to be written must first be
      // invalidated from every cache and every RRT. Overlapping
      // dependencies (finer-grained halo regions carved out of a larger
      // block) transition together: writing the block also kills its
      // halo's replicas.
      auto invalidate_replicas = [&](DirEntry& re) {
        ++counts_.ro_rw_transitions;
        Translated tr = translate_dep(re.vrange, core);
        tl.charge("tdnuca_invalidate",
                  isa_rrt_cost(cfg_.isa, tr.tlb_cycles,
                               static_cast<unsigned>(tr.pieces.size())),
                  tl.dep_args(a.dep, tr));
        tl.charge("tdnuca_flush", isa_flush_issue_cost(cfg_.isa, 0),
                  tl.dep_args(a.dep, tr));
        // Replicas and RRT entries can only exist on this policy's cores
        // (the whole machine unless partitioned for colocation).
        const CoreMask all_cores = policy_.core_partition();
        for (const AddrRange& piece : tr.pieces) {
          all_cores.for_each(
              [&](CoreId c) { policy_.rrt(c).invalidate_range(piece); });
          join->add();
          ops->flush_llc_range(re.map_mask, piece,
                               [join] { join->complete(); });
          join->add();
          ops->flush_l1_range(all_cores, piece, [join] { join->complete(); });
        }
        re.map_mask = BankMask::none();
        re.rrt_cores = CoreMask::none();
        re.placement = Placement::Unmapped;
      };
      if (a.writes()) {
        if (e.placement == Placement::Replicated) invalidate_replicas(e);
        for (auto& [other_id, other] : dir_.mutable_all()) {
          if (other_id == a.dep) continue;
          if (other.placement == Placement::Replicated &&
              other.vrange.overlaps(d.vrange)) {
            invalidate_replicas(other);
          }
        }
      }

      // --- register the new mapping ------------------------------------
      // A dependency leaving the Replicated state with no future users:
      // clear the stale replicated RRT entries of past readers so dead
      // mappings do not pin RRT capacity (its cached replicas are clean and
      // age out naturally). This keeps occupancy in the paper's observed
      // range on reuse-heavy workloads.
      if (p == Placement::Bypass && e.placement == Placement::Replicated &&
          !e.rrt_cores.empty()) {
        Translated tr_old = translate_dep(d.vrange, core);
        tl.charge("tdnuca_invalidate",
                  isa_rrt_cost(cfg_.isa, tr_old.tlb_cycles,
                               static_cast<unsigned>(tr_old.pieces.size())),
                  tl.dep_args(a.dep, tr_old));
        clear_rrts(e.rrt_cores, tr_old.pieces);
        e.rrt_cores = CoreMask::none();
      }
      if (p == Placement::Bypass || p == Placement::LocalBank) {
        // The end-of-task flush and invalidation walk the same pieces.
        Translated tr =
            register_dep(tl, a.dep, d.vrange, core, pd.mask,
                         p == Placement::Bypass ? "bypass" : "local");
        pd.pieces = std::move(tr.pieces);
        pd.pages = tr.pages;
      } else if (p == Placement::Replicated && !e.rrt_cores.test(cid)) {
        // First task on this core to read the dependency: register the
        // cluster mapping in this core's RRT. Later readers on the same
        // core reuse the entry (it stays resident until invalidated).
        register_dep(tl, a.dep, d.vrange, core, pd.mask, "replicated");
        e.rrt_cores.set(cid);
      }
    }

    // --- directory bookkeeping -------------------------------------------
    switch (p) {
      case Placement::Bypass:
        ++counts_.bypass_placements;
        e.ever_bypassed = true;
        e.placement = Placement::Bypass;
        e.map_mask = BankMask::none();
        e.local_owner = cid;
        break;
      case Placement::LocalBank:
        ++counts_.local_placements;
        e.placement = Placement::LocalBank;
        e.map_mask = pd.mask;
        e.local_owner = cid;
        break;
      case Placement::Replicated:
        ++counts_.replicated_placements;
        e.placement = Placement::Replicated;
        e.map_mask |= pd.mask;
        break;
      case Placement::Unmapped:
        break;  // bypass-only variant: fall back to S-NUCA interleaving
    }
    placed.push_back(std::move(pd));
  }

  active_[task.id] = std::move(placed);
  counts_.runtime_overhead_cycles += tl.cycles;
  task.hook_cycles += tl.cycles;
  join->add();
  core.busy(tl.cycles, [join] { join->complete(); });
  join->arm();
}

void TdNucaRuntimeHooks::after_task(runtime::Task& task, core::SimCore& core,
                                    std::function<void()> done) {
  const CoreId cid = core.id();
  const bool run_isa = variant_ != Variant::DryRun;
  nuca::CacheOps* ops = policy_.ops();
  auto it = active_.find(task.id);
  TDN_ASSERT(it != active_.end());

  IsaTimeline tl(rec_, cid);
  for (PlacedDep& pd : it->second) {
    DirEntry& e = dir_.entry(pd.dep, rts_->dep(pd.dep).vrange);
    // The flushes below drain in the background: the core pays only the
    // instruction issue cost here, and the next task that names the same
    // dependency polls the completion register (when_clean) before
    // re-registering it.
    if (run_isa) {
      switch (pd.placement) {
        case Placement::Bypass:
        case Placement::LocalBank:
          // Flush the dependency from this core's L1 (and a local-bank
          // mapping from its LLC bank too), then clear the RRT entry
          // (Fig. 7 end-of-task actions).
          tl.charge("tdnuca_flush", isa_flush_issue_cost(cfg_.isa, pd.pages),
                    tl.pd_args(pd));
          tl.charge("tdnuca_invalidate",
                    isa_rrt_cost(cfg_.isa, pd.pages,
                                 static_cast<unsigned>(pd.pieces.size())),
                    tl.pd_args(pd));
          for (const AddrRange& piece : pd.pieces) {
            policy_.rrt(cid).invalidate_range(piece);
            flush_started(pd.dep);
            ops->flush_l1_range(CoreMask::single(cid), piece,
                                [this, dep = pd.dep] { flush_finished(dep); });
            if (pd.placement == Placement::LocalBank) {
              flush_started(pd.dep);
              ops->flush_llc_range(pd.mask, piece, [this, dep = pd.dep] {
                flush_finished(dep);
              });
            }
          }
          break;
        case Placement::Replicated:
          // Replicated mappings persist for future readers; but once the
          // last visible reader has finished (UseDesc == 0), the RRT entries
          // are dead weight — clear them everywhere so the no-replacement
          // RRTs don't fill up with stale mappings. The cached replicas stay
          // (they are clean and age out; a later write still sees the
          // Replicated placement and triggers the full invalidation).
          if (e.use_desc == 0 && e.placement == Placement::Replicated &&
              !e.rrt_cores.empty()) {
            tl.charge("tdnuca_invalidate",
                      isa_rrt_cost(cfg_.isa, pd.pages,
                                   static_cast<unsigned>(pd.pieces.size())),
                      tl.pd_args(pd));
            clear_rrts(e.rrt_cores,
                       translate_dep(rts_->dep(pd.dep).vrange, core).pieces);
            e.rrt_cores = CoreMask::none();
          }
          break;
        case Placement::Unmapped:
          break;
      }
    }
    // A Bypass or LocalBank mapping ends with its task, unless a later task
    // has placed the dependency since.
    if ((pd.placement == Placement::Bypass ||
         pd.placement == Placement::LocalBank) &&
        e.placement == pd.placement && e.local_owner == cid) {
      e.placement = Placement::Unmapped;
      e.map_mask = BankMask::none();
    }
  }
  active_.erase(it);
  counts_.runtime_overhead_cycles += tl.cycles;
  task.hook_cycles += tl.cycles;
  core.busy(tl.cycles, std::move(done));
}

}  // namespace tdn::tdnuca
