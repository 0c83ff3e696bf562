#include "mem/page_table.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace tdn::mem {

PageTable::PageTable(PageTableConfig cfg, vm::VmConfig vm)
    : cfg_(cfg), vm_(vm),
      base_pages_only_(!vm.enabled || vm.thp == vm::ThpPolicy::Never),
      rng_(cfg.seed), buddy_(vm.enabled ? vm.fragmentation : 0.0, vm.seed) {
  TDN_REQUIRE(is_pow2(cfg_.page_size), "page size must be a power of two");
  TDN_REQUIRE(cfg_.fragmentation >= 0.0 && cfg_.fragmentation <= 1.0,
              "fragmentation must be in [0,1]");
  if (vm_.enabled)
    TDN_REQUIRE(cfg_.page_size == vm::kPage4K,
                "vm mode models the x86 radix tree: base pages are 4K");
}

Addr PageTable::allocate_frame() {
  // Fragmentation injection: occasionally put a frame aside and hand out the
  // next one, so consecutively touched virtual pages get non-adjacent frames.
  if (cfg_.fragmentation > 0.0 && rng_.next_double() < cfg_.fragmentation) {
    skipped_frames_.push_back(next_frame_++);
  } else if (!skipped_frames_.empty() && rng_.next_double() < 0.5) {
    const Addr frame = skipped_frames_.back();
    skipped_frames_.pop_back();
    return frame;
  }
  return next_frame_++;
}

const PageTable::PageMapping* PageTable::find_mapping(Addr vaddr) const {
  auto it = map_.upper_bound(vaddr);
  if (it == map_.begin()) return nullptr;
  --it;
  const PageMapping& m = it->second;
  return vaddr < m.va_base + m.span ? &m : nullptr;
}

bool PageTable::huge_candidate(Addr va_base, Addr span) const {
  if (vm_.thp == vm::ThpPolicy::Always) return true;
  if (vm_.thp != vm::ThpPolicy::Madvise) return false;
  // The whole aligned span must lie inside one advised interval.
  auto it = advised_.upper_bound(va_base);
  if (it == advised_.begin()) return false;
  --it;
  return va_base >= it->first && va_base + span <= it->second;
}

PageTable::PageMapping PageTable::touch_page(Addr vaddr) {
  if (const PageMapping* m = find_mapping(vaddr)) return *m;
  const Addr ps = cfg_.page_size;
  const PageMapping m = vm_.enabled ? allocate_vm_page(vaddr)
                                    : PageMapping{align_down(vaddr, ps),
                                                  allocate_frame() * ps, ps};
  map_.emplace(m.va_base, m);
  return m;
}

PageTable::PageMapping PageTable::allocate_vm_page(Addr vaddr) {
  // Largest policy-eligible page first, falling back when the aligned VA
  // span conflicts with an existing mapping or the buddy pool has no
  // contiguous run (fragmentation).
  for (const Addr span : {vm::kPage2M, vm::kPage4K}) {
    const Addr va_base = align_down(vaddr, span);
    if (span > vm::kPage4K) {
      if (!huge_candidate(va_base, span)) continue;
      // A mapping overlapping [va_base, va_base+span) but not covering
      // vaddr forbids the huge page (mappings never nest).
      auto it = map_.lower_bound(va_base);
      const bool conflict =
          (it != map_.end() && it->first < va_base + span) ||
          (it != map_.begin() &&
           std::prev(it)->second.va_base + std::prev(it)->second.span >
               va_base);
      if (conflict) {
        ++huge_fallbacks_;
        continue;
      }
    }
    const unsigned order = log2_exact(span / vm::kPage4K);
    const auto frame = buddy_.try_allocate(order, order == 0 ? 2 : 1);
    if (!frame) {
      ++huge_fallbacks_;
      continue;
    }
    return PageMapping{va_base, *frame * vm::kPage4K, span};
  }
  TDN_REQUIRE(false, "4K allocation cannot fail");
  return {};
}

Addr PageTable::translate(Addr vaddr) {
  const PageMapping m = touch_page(vaddr);
  return m.pa_base + (vaddr - m.va_base);
}

bool PageTable::try_translate(Addr vaddr, Addr& paddr) const {
  const PageMapping* m = find_mapping(vaddr);
  if (m == nullptr) return false;
  paddr = m->pa_base + (vaddr - m->va_base);
  return true;
}

Addr PageTable::page_base(Addr vaddr) const {
  if (!base_pages_only_)
    if (const PageMapping* m = find_mapping(vaddr)) return m->va_base;
  return align_down(vaddr, cfg_.page_size);
}

Addr PageTable::page_span(Addr vaddr) const {
  if (!base_pages_only_)
    if (const PageMapping* m = find_mapping(vaddr)) return m->span;
  return cfg_.page_size;
}

void PageTable::advise_huge(const AddrRange& vrange) {
  if (!vm_madvise() || vrange.empty()) return;
  // Insert [begin, end) and merge with abutting/overlapping intervals.
  Addr begin = vrange.begin;
  Addr end = vrange.end;
  auto it = advised_.upper_bound(begin);
  if (it != advised_.begin() && std::prev(it)->second >= begin) {
    --it;
    begin = it->first;
  }
  while (it != advised_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = advised_.erase(it);
  }
  advised_[begin] = end;
}

PageTable::RangeTranslation PageTable::translate_range(const AddrRange& vrange) {
  RangeTranslation out;
  if (vrange.empty()) return out;
  const Addr ps = cfg_.page_size;
  Addr va = align_down(vrange.begin, ps);
  const Addr va_end = align_up(vrange.end, ps);
  AddrRange current{0, 0};
  while (va < va_end) {
    const PageMapping m = touch_page(va);
    ++out.pages_walked;
    const Addr seg_end = std::min(va_end, m.va_base + m.span);
    // Clip the physical piece to the byte bounds of the virtual range.
    const Addr lo = std::max(va, vrange.begin);
    const Addr hi = std::min(seg_end, vrange.end);
    const Addr piece_begin = m.pa_base + (lo - m.va_base);
    const Addr piece_end = m.pa_base + (hi - m.va_base);
    if (!current.empty() && current.end == piece_begin) {
      current.end = piece_end;  // physically contiguous: collapse
    } else {
      if (!current.empty()) out.physical_pieces.push_back(current);
      current = AddrRange{piece_begin, piece_end};
    }
    va = seg_end;
  }
  if (!current.empty()) out.physical_pieces.push_back(current);
  return out;
}

std::uint64_t PageTable::pages_of(Addr span) const {
  std::uint64_t n = 0;
  for (const auto& [base, m] : map_)
    if (m.span == span) ++n;
  return n;
}

}  // namespace tdn::mem
