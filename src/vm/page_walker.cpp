#include "vm/page_walker.hpp"

#include <array>
#include <memory>

#include "coherence/coherent_system.hpp"
#include "common/prng.hpp"
#include "sim/event_queue.hpp"

namespace tdn::vm {

namespace {
/// Page-table structures live in this physical window above kKernelBase.
constexpr Addr kPtRegion = 256 * kMiB;
/// VA-region span covered by one entry at each radix level (level-1 span is
/// the page itself and depends on the page size).
constexpr Addr kLevelSpan[5] = {0, kPage4K, kPage2M, kPage1G, 512 * kPage1G};
}  // namespace

PageWalker::PageWalker(CoreId core, sim::EventQueue& eq,
                       coherence::CoherentSystem* caches, const VmConfig& cfg)
    : core_(core), eq_(eq), caches_(caches), cfg_(cfg),
      psc_l4_(cfg.psc_l4_entries, kLevelSpan[4]),
      psc_l3_(cfg.psc_l3_entries, kLevelSpan[3]),
      psc_l2_(cfg.psc_l2_entries, kLevelSpan[2]) {}

unsigned PageWalker::leaf_level(Addr span) {
  return span >= kPage2M ? 2 : 1;
}

Addr PageWalker::level_prefix(Addr vaddr, unsigned level) {
  return align_down(vaddr, kLevelSpan[level]);
}

Addr PageWalker::pte_paddr(unsigned level, Addr vaddr) const {
  const unsigned shift = 12 + 9 * (level - 1);
  const Addr idx = (vaddr >> shift) & 0x1ff;
  // Each radix table sits at a deterministic pseudo-random 4K-aligned slot
  // in the kernel window, derived from (level, table-covering prefix).
  const std::uint64_t key[2] = {level, vaddr >> (shift + 9)};
  const std::uint64_t h =
      fnv1a64(reinterpret_cast<const char*>(key), sizeof key);
  return kKernelBase + align_down(h & (kPtRegion - 1), kPage4K) + idx * 8;
}

void PageWalker::plan_loads(Addr vaddr, Addr span, Addr out[4], unsigned& n) {
  const unsigned leaf = leaf_level(span);
  // Deepest paging-structure-cache hit wins: a cached level-L entry skips
  // every load above level L-1. Non-leaf entries only — the leaf is the
  // TLB's job.
  unsigned top = 4;
  if (leaf < 2 && psc_l2_.lookup(vaddr)) {
    top = 1;
    ++psc_hits_;
  } else if (leaf < 3 && psc_l3_.lookup(vaddr)) {
    top = 2;
    ++psc_hits_;
  } else if (leaf < 4 && psc_l4_.lookup(vaddr)) {
    top = 3;
    ++psc_hits_;
  }
  if (top < leaf) top = leaf;
  n = 0;
  for (unsigned level = top; level >= leaf; --level)
    out[n++] = pte_paddr(level, vaddr);
}

void PageWalker::fill_psc(Addr vaddr, Addr span) {
  const unsigned leaf = leaf_level(span);
  if (leaf < 4)
    psc_l4_.fill(level_prefix(vaddr, 4), kLevelSpan[4]);
  if (leaf < 3)
    psc_l3_.fill(level_prefix(vaddr, 3), kLevelSpan[3]);
  if (leaf < 2)
    psc_l2_.fill(level_prefix(vaddr, 2), kLevelSpan[2]);
}

unsigned PageWalker::load_chain(Addr vaddr, Addr span,
                                std::function<void(Cycle)> done) {
  struct Job {
    std::array<Addr, 4> loads;
    unsigned n = 0;
    Cycle start = 0;
    std::function<void(Cycle)> done;
  };
  auto job = std::make_shared<Job>();
  plan_loads(vaddr, span, job->loads.data(), job->n);
  ++walks_;
  walk_loads_ += job->n;
  job->start = eq_.now();
  job->done = std::move(done);
  // A charged walk fills the PSCs at once, as if it had completed.
  if (!job->done) fill_psc(vaddr, span);

  // Dependent chain: each PTE load's fill triggers the next level's load.
  auto step = [this, job, vaddr, span](unsigned i, const auto& self) -> void {
    if (i == job->n) {
      if (!job->done) return;
      fill_psc(vaddr, span);
      const Cycle lat = (eq_.now() - job->start) + cfg_.psc_latency;
      walk_cycles_ += lat;
      job->done(lat);
      return;
    }
    const Addr pa = job->loads[i];
    caches_->access(core_, pa, pa, AccessKind::Read,
                    [i, self] { self(i + 1, self); });
  };
  const unsigned n = job->n;
  step(0, step);
  return n;
}

void PageWalker::walk(Addr vaddr, Addr span, std::function<void(Cycle)> done) {
  load_chain(vaddr, span, std::move(done));
}

Cycle PageWalker::charge_walk(Addr vaddr, Addr span) {
  // The same PTE loads go into the hierarchy (chained, fire-and-forget) so
  // the ISA-path walk warms and perturbs the caches like hardware would,
  // while its cycle cost stays a deterministic synchronous charge.
  const unsigned n = load_chain(vaddr, span, {});
  const Cycle c = cfg_.psc_latency + n * cfg_.walk_charge_per_level;
  charge_cycles_ += c;
  return c;
}

void PageWalker::invalidate_psc(Addr vaddr) {
  // A leaf change can promote/demote the covering PDE; drop it. Upper
  // levels are structural and survive shootdowns.
  psc_l2_.invalidate(vaddr);
}

void PageWalker::clear_psc() {
  psc_l4_.clear();
  psc_l3_.clear();
  psc_l2_.clear();
}

}  // namespace tdn::vm
