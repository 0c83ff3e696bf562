#include "nuca/rnuca.hpp"

namespace tdn::nuca {

RNucaPolicy::RNucaPolicy(const noc::Mesh& mesh, unsigned num_banks,
                         mem::PageTable& pt)
    : pt_(pt), clusters_(mesh) {
  set_partition(BankMask::first_n(num_banks), CoreMask::first_n(num_banks));
}

void RNucaPolicy::flush_page(Addr page_base, CoreMask cores, BankMask banks) {
  if (ops_ == nullptr) return;
  Addr pa = 0;
  if (!pt_.try_translate(page_base, pa))
    return;  // never materialized: nothing cached
  const AddrRange prange{pa, pa + pt_.page_span(page_base)};
  if (!cores.empty()) ops_->flush_l1_range(cores, prange, [] {});
  if (!banks.empty()) ops_->flush_llc_range(banks, prange, [] {});
}

void RNucaPolicy::on_access(CoreId core, Addr vaddr, AccessKind kind) {
  const Addr vpage = pt_.page_base(vaddr);
  auto [it, inserted] = pages_.try_emplace(vpage);
  PageState& ps = it->second;
  if (inserted) {
    ps.cls = PageClass::Private;
    ps.owner = core;
    ps.written = is_write(kind);
    return;
  }
  switch (ps.cls) {
    case PageClass::Private:
      if (ps.owner == core) {
        ps.written = ps.written || is_write(kind);
        return;
      }
      // Second core touches the page: reclassify. The previous owner's
      // cached copies (its L1 and its local LLC bank) are flushed and its
      // TLB entry is invalidated (paper Sec. II-C).
      reclassifications_.inc();
      flush_page(vpage, CoreMask::single(ps.owner),
                 BankMask::single(ps.owner));
      if (ps.owner < mmus_.size() && mmus_[ps.owner] != nullptr)
        mmus_[ps.owner]->invalidate_page(vaddr);
      ps.cls = (ps.written || is_write(kind)) ? PageClass::Shared
                                              : PageClass::SharedRO;
      ps.written = ps.written || is_write(kind);
      ps.owner = kInvalidCore;
      return;
    case PageClass::SharedRO:
      if (!is_write(kind)) return;
      // A write to a replicated read-only page: demote to Shared and flush
      // every replica from every cache (Sec. V enhancement).
      reclassifications_.inc();
      ps.cls = PageClass::Shared;
      ps.written = true;
      // Replicas can only live on this policy's cores and banks.
      flush_page(vpage, core_partition(), bank_partition());
      for (auto* mmu : mmus_)
        if (mmu != nullptr) mmu->invalidate_page(vaddr);
      return;
    case PageClass::Shared:
      return;  // terminal class
  }
}

MapDecision RNucaPolicy::map(CoreId core, Addr vaddr, Addr paddr,
                             AccessKind /*kind*/) {
  const Addr vpage = pt_.page_base(vaddr);
  auto it = pages_.find(vpage);
  // on_access always runs first on the demand path, but writebacks can
  // outlive the map state; fall back to interleaving for unknown pages.
  if (it == pages_.end())
    return MapDecision::to_bank(degrade(interleave_bank(paddr), paddr));
  switch (it->second.cls) {
    case PageClass::Private:
      return MapDecision::to_bank(degrade(it->second.owner, paddr));
    case PageClass::SharedRO: {
      // Rotational interleave over the quadrant's in-partition banks, which
      // hold at least the core's own (set_partition keeps cores inside the
      // banks).
      const BankMask m =
          clusters_.mask_of(clusters_.cluster_of(core)) & bank_partition();
      TDN_ASSERT(!m.empty());
      return MapDecision::to_bank(
          degrade(tdnuca::ClusterMap::bank_for_mask(m, paddr), paddr));
    }
    case PageClass::Shared:
      return MapDecision::to_bank(degrade(interleave_bank(paddr), paddr));
  }
  return MapDecision::to_bank(degrade(interleave_bank(paddr), paddr));
}

RNucaPolicy::Census RNucaPolicy::census() const {
  Census c;
  for (const auto& [page, ps] : pages_) {
    (void)page;
    switch (ps.cls) {
      case PageClass::Private: ++c.private_pages; break;
      case PageClass::SharedRO: ++c.shared_ro_pages; break;
      case PageClass::Shared: ++c.shared_pages; break;
    }
  }
  return c;
}

}  // namespace tdn::nuca
