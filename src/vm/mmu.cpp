#include "vm/mmu.hpp"

#include "common/require.hpp"

namespace tdn::vm {

Mmu::Mmu(CoreId core, sim::EventQueue& eq, coherence::CoherentSystem* caches,
         mem::PageTable& pt, const mem::TlbConfig& legacy_cfg,
         const VmConfig& vm)
    : pt_(pt), vm_(vm), miss_penalty_(legacy_cfg.miss_penalty),
      tlbs_(vm.enabled ? TlbHierarchy(vm)
                       : TlbHierarchy(legacy_cfg, pt.page_size())),
      walker_(core, eq, caches, vm) {
  TDN_REQUIRE(!vm.enabled || caches != nullptr,
              "vm mode needs a cache hierarchy for page walks");
}

bool Mmu::translate_now(Addr vaddr, Cycle& cycles, Addr& paddr) {
  const TlbHierarchy::Result r = tlbs_.lookup(vaddr);
  cycles = r.latency;
  if (r.hit) {
    paddr = r.paddr;
  } else if (vm_.enabled) {
    return false;
  } else {
    const mem::PageTable::PageMapping m = pt_.touch_page(vaddr);
    tlbs_.fill(m.va_base, m.span, m.pa_base);
    cycles += miss_penalty_;
    paddr = m.pa_base + (vaddr - m.va_base);
  }
  observe(cycles);
  return true;
}

void Mmu::walk(Addr vaddr, Cycle probe,
               std::function<void(Cycle, Addr)> done) {
  const mem::PageTable::PageMapping m = pt_.touch_page(vaddr);
  const Addr paddr = m.pa_base + (vaddr - m.va_base);
  walker_.walk(vaddr, m.span,
               [this, m, paddr, probe,
                done = std::move(done)](Cycle walk_cycles) {
                 tlbs_.fill(m.va_base, m.span, m.pa_base);
                 observe(probe + walk_cycles);
                 if (obs_walk_ != nullptr) obs_walk_->add(walk_cycles);
                 done(probe + walk_cycles, paddr);
               });
}

Cycle Mmu::charge_translation(Addr vaddr) {
  const TlbHierarchy::Result r = tlbs_.lookup(vaddr);
  if (r.hit) return r.latency;
  const mem::PageTable::PageMapping m = pt_.touch_page(vaddr);
  const Cycle miss =
      vm_.enabled ? walker_.charge_walk(vaddr, m.span) : miss_penalty_;
  tlbs_.fill(m.va_base, m.span, m.pa_base);
  return r.latency + miss;
}

void Mmu::invalidate_page(Addr vaddr) {
  tlbs_.invalidate_page(vaddr);
  walker_.invalidate_psc(vaddr);
}

void Mmu::ckpt_cold_reset() {
  tlbs_.ckpt_cold_reset();
  walker_.clear_psc();
}

}  // namespace tdn::vm
