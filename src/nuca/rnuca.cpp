#include "nuca/rnuca.hpp"

namespace tdn::nuca {

RNucaPolicy::RNucaPolicy(const noc::Mesh& mesh, unsigned num_banks,
                         mem::PageTable& pt, RNucaConfig cfg)
    : cfg_(cfg), num_banks_(num_banks), pt_(pt), clusters_(mesh) {}

void RNucaPolicy::flush_page(Addr page_base, CoreMask cores, BankMask banks) {
  if (ops_ == nullptr) return;
  Addr pa = 0;
  if (!pt_.try_translate(page_base, pa))
    return;  // never materialized: nothing cached
  const AddrRange prange{pa, pa + pt_.page_span(page_base)};
  if (!cores.empty()) ops_->flush_l1_range(cores, prange, [] {});
  if (!banks.empty()) ops_->flush_llc_range(banks, prange, [] {});
}

Cycle RNucaPolicy::on_access(CoreId core, Addr vaddr, AccessKind kind) {
  const Addr vpage = pt_.page_base(vaddr);
  auto [it, inserted] = pages_.try_emplace(vpage);
  PageState& ps = it->second;
  if (inserted) {
    ps.cls = PageClass::Private;
    ps.owner = core;
    ps.written = is_write(kind);
    return cfg_.first_touch_penalty;
  }
  switch (ps.cls) {
    case PageClass::Private:
      if (ps.owner == core) {
        ps.written = ps.written || is_write(kind);
        return 0;
      }
      // Second core touches the page: reclassify. The previous owner's
      // cached copies (its L1 and its local LLC bank) are flushed and its
      // TLB entry is invalidated (paper Sec. II-C). Under a partition a
      // foreign-tile owner's lines live interleaved across the partition
      // banks instead of on its own tile.
      reclassifications_.inc();
      flush_page(vpage, CoreMask::single(ps.owner),
                 bank_partition().empty() || bank_partition().test(ps.owner)
                     ? BankMask::single(ps.owner)
                     : bank_partition());
      if (ps.owner < mmus_.size() && mmus_[ps.owner] != nullptr)
        mmus_[ps.owner]->invalidate_page(vaddr);
      ps.cls = (ps.written || is_write(kind)) ? PageClass::Shared
                                              : PageClass::SharedRO;
      ps.written = ps.written || is_write(kind);
      ps.owner = kInvalidCore;
      return cfg_.reclassification_penalty;
    case PageClass::SharedRO:
      if (!is_write(kind)) return 0;
      // A write to a replicated read-only page: demote to Shared and flush
      // every replica from every cache (Sec. V enhancement).
      reclassifications_.inc();
      ps.cls = PageClass::Shared;
      ps.written = true;
      // Replicas can only live on this policy's cores/banks: restrict the
      // all-caches flush to the partition when one is set.
      flush_page(vpage,
                 core_partition().empty() ? CoreMask::first_n(num_banks_)
                                          : core_partition(),
                 bank_partition().empty() ? BankMask::first_n(num_banks_)
                                          : bank_partition());
      for (auto* mmu : mmus_)
        if (mmu != nullptr) mmu->invalidate_page(vaddr);
      return cfg_.reclassification_penalty;
    case PageClass::Shared:
      return 0;  // terminal class
  }
  return 0;
}

MapDecision RNucaPolicy::map(CoreId core, Addr vaddr, Addr paddr,
                             AccessKind /*kind*/) {
  const Addr vpage = pt_.page_base(vaddr);
  auto it = pages_.find(vpage);
  // on_access always runs first on the demand path, but writebacks can
  // outlive the map state; fall back to interleaving for unknown pages.
  if (it == pages_.end())
    return MapDecision::to_bank(
        degrade(interleave_bank(paddr, num_banks_), paddr));
  switch (it->second.cls) {
    case PageClass::Private: {
      const CoreId owner = it->second.owner;
      // A foreign-tile owner (overlapping-core colocation) has no bank of
      // its own inside the partition; its pages interleave instead.
      if (!bank_partition().empty() && !bank_partition().test(owner))
        return MapDecision::to_bank(
            degrade(interleave_bank(paddr, num_banks_), paddr));
      return MapDecision::to_bank(degrade(owner, paddr));
    }
    case PageClass::SharedRO: {
      if (bank_partition().empty())
        return MapDecision::to_bank(degrade(
            clusters_.bank_for(clusters_.cluster_of(core), paddr), paddr));
      // Rotational interleave over the quadrant's in-partition banks; a
      // quadrant fully outside the partition falls back to interleaving.
      const BankMask m =
          clusters_.mask_of(clusters_.cluster_of(core)) & bank_partition();
      if (m.empty())
        return MapDecision::to_bank(
            degrade(interleave_bank(paddr, num_banks_), paddr));
      return MapDecision::to_bank(
          degrade(tdnuca::ClusterMap::bank_for_mask(m, paddr), paddr));
    }
    case PageClass::Shared:
      return MapDecision::to_bank(
          degrade(interleave_bank(paddr, num_banks_), paddr));
  }
  return MapDecision::to_bank(
      degrade(interleave_bank(paddr, num_banks_), paddr));
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
