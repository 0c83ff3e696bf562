#include "vm/tlb_hierarchy.hpp"

#include <iterator>

#include "common/require.hpp"

namespace tdn::vm {

TlbArray::Map::iterator TlbArray::find(Addr vaddr) {
  if (fixed_span_ != 0) return map_.find(align_down(vaddr, fixed_span_));
  // An entry's key is its va_base; with mixed spans the covering entry (if
  // any) is keyed at one of the two page-size alignments of vaddr.
  for (Addr span : {kPage4K, kPage2M}) {
    auto it = map_.find(align_down(vaddr, span));
    if (it != map_.end() && vaddr < it->first + it->second->span) return it;
  }
  return map_.end();
}

const TlbEntry* TlbArray::lookup(Addr vaddr) {
  auto it = find(vaddr);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return &*it->second;
}

void TlbArray::fill(Addr va_base, Addr span, Addr pa_base) {
  if (entries_ == 0) return;
  auto it = map_.find(va_base);
  if (it != map_.end()) {
    *it->second = {va_base, pa_base, span};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= entries_) {
    // Evict the LRU entry by reusing its list and map nodes: a full array
    // fills without allocating.
    auto node = map_.extract(lru_.back().va_base);
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    lru_.front() = {va_base, pa_base, span};
    node.key() = va_base;
    node.mapped() = lru_.begin();
    map_.insert(std::move(node));
    return;
  }
  lru_.push_front({va_base, pa_base, span});
  map_.emplace(va_base, lru_.begin());
}

bool TlbArray::invalidate(Addr vaddr) {
  auto it = find(vaddr);
  if (it == map_.end()) return false;
  lru_.erase(it->second);
  map_.erase(it);
  return true;
}

void TlbArray::clear() {
  map_.clear();
  lru_.clear();
}

TlbHierarchy::TlbHierarchy(const VmConfig& cfg)
    : l2_(cfg.l2_entries), l1_latency_(cfg.l1_latency),
      l2_latency_(cfg.l2_latency) {
  l1_.emplace_back(cfg.l1_4k_entries, kPage4K);
  l1_.emplace_back(cfg.l1_2m_entries, kPage2M);
}

TlbHierarchy::TlbHierarchy(const mem::TlbConfig& cfg, Addr page_size)
    : l1_latency_(cfg.hit_latency) {
  TDN_REQUIRE(cfg.entries > 0, "TLB needs at least one entry");
  l1_.emplace_back(cfg.entries, page_size);
}

TlbArray& TlbHierarchy::l1_for(Addr span) {
  for (auto it = l1_.rbegin(); it != l1_.rend(); ++it)
    if (span >= it->fixed_span()) return *it;
  return l1_.front();
}

TlbHierarchy::Result TlbHierarchy::lookup(Addr vaddr) {
  for (TlbArray& a : l1_) {
    if (const TlbEntry* e = a.lookup(vaddr)) {
      ++l1_hits_;
      return {true, l1_latency_, e->pa_base + (vaddr - e->va_base)};
    }
  }
  const Cycle probe = l1_latency_ + l2_latency_;
  if (const TlbEntry* e = l2_.lookup(vaddr)) {
    ++l2_hits_;
    // Refill the size-appropriate L1 array so the next access hits fast.
    l1_for(e->span).fill(e->va_base, e->span, e->pa_base);
    return {true, probe, e->pa_base + (vaddr - e->va_base)};
  }
  ++misses_;
  return {false, probe, 0};
}

void TlbHierarchy::fill(Addr va_base, Addr span, Addr pa_base) {
  l2_.fill(va_base, span, pa_base);
  l1_for(span).fill(va_base, span, pa_base);
}

void TlbHierarchy::invalidate_page(Addr vaddr) {
  bool any = false;
  for (TlbArray& a : l1_) any = a.invalidate(vaddr) || any;
  any = l2_.invalidate(vaddr) || any;
  if (any) ++shootdowns_;
}

void TlbHierarchy::ckpt_cold_reset() {
  for (TlbArray& a : l1_) a.clear();
  l2_.clear();
}

}  // namespace tdn::vm
