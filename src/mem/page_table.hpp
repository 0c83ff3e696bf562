// Page table + physical frame allocators.
//
// One VA->mapping store serves both memory models. They differ only in the
// frame allocator that backs a first touch:
//
//  * Legacy (vm disabled, the default): first-touch 4K pages with PRNG
//    fragmentation injection — with fragmentation > 0, consecutive virtual
//    pages are deliberately given non-consecutive physical frames some of
//    the time. This matters for TD-NUCA because the RRT collapses contiguous
//    physical pages into one entry (paper Fig. 5); fragmented dependencies
//    need multiple RRT entries and create the occupancy pressure discussed
//    in Sec. V-E.
//
//  * tdn::vm (vm.enabled): multi-size pages (4K/2M/1G) backed by a
//    contiguity-aware buddy allocator, with THP-style promotion policies
//    (never/always/madvise — the runtime issues the madvise-like hint per
//    dependency region at tdnuca_register time via advise_huge()). A 2M
//    page collapses 512 translate_range iterations into one, which is the
//    RRT-registration ablation docs/memory.md describes.
//
// vm::Mmu's TLB entries carry the physical frame, so the store is read only
// on TLB misses, by the ISA path's translate_range and by R-NUCA's page
// flush. A table that can hold only base pages (legacy, or THP never)
// answers page_base/page_span by alignment, which keeps R-NUCA's
// per-access classification off the ordered map.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "vm/buddy_allocator.hpp"
#include "vm/config.hpp"

namespace tdn::mem {

struct PageTableConfig {
  Addr page_size = 4 * kKiB;
  /// Probability that the allocator breaks physical contiguity on the next
  /// first-touch allocation (0 = fully contiguous, 1 = every page random).
  /// Legacy mode only; vm mode fragments the physical pool instead
  /// (vm::VmConfig::fragmentation).
  double fragmentation = 0.15;
  std::uint64_t seed = 0x7dfca150'9e21b4c3ull;
};

/// Legacy per-core data TLB geometry: fully associative, true-LRU, as in the
/// paper's gem5 configuration (64 entries, 1-cycle access). vm::Mmu builds a
/// single-level vm::TlbHierarchy from it when vm is disabled.
struct TlbConfig {
  unsigned entries = 64;
  Cycle hit_latency = 1;
  /// Page-walk cost on a TLB miss: an x86 hardware walker with warm
  /// paging-structure caches resolves most walks in a couple of memory
  /// accesses.
  Cycle miss_penalty = 24;
};

class PageTable {
 public:
  explicit PageTable(PageTableConfig cfg = {}, vm::VmConfig vm = {});

  /// Base (smallest) page size. Huge pages are multiples of this.
  Addr page_size() const noexcept { return cfg_.page_size; }
  /// True when the runtime should issue madvise-like huge-page hints.
  bool vm_madvise() const noexcept {
    return vm_.enabled && vm_.thp == vm::ThpPolicy::Madvise;
  }

  /// One established VA->PA mapping (legacy mappings are base-page sized).
  struct PageMapping {
    Addr va_base = 0;
    Addr pa_base = 0;
    Addr span = 0;
  };

  /// Mapping covering @p vaddr, allocating it on first touch (Linux
  /// first-touch behaviour; in vm mode the THP policy decides the size).
  PageMapping touch_page(Addr vaddr);

  /// Translate a virtual address; allocates on first touch.
  Addr translate(Addr vaddr);

  /// Translate without allocating; returns false if the page is unmapped.
  bool try_translate(Addr vaddr, Addr& paddr) const;

  /// Base VA of the page covering @p vaddr. For an unmapped address this
  /// falls back to base-page alignment (callers on the demand path always
  /// translate first, so their pages are mapped).
  Addr page_base(Addr vaddr) const;
  /// Size of the page covering @p vaddr (same fallback).
  Addr page_span(Addr vaddr) const;

  /// Madvise-like hint: subsequent first touches inside @p vrange may be
  /// backed by huge pages (vm mode with ThpPolicy::Madvise; no-op
  /// otherwise). A huge page is used only when its aligned span lies fully
  /// inside the advised union.
  void advise_huge(const AddrRange& vrange);

  /// Translate a whole virtual range into maximal physically-contiguous
  /// pieces — exactly the iterative collapse the tdnuca_register instruction
  /// performs. Allocates frames on first touch. Also reports how many page
  /// translations (TLB lookups) the iteration needed; one huge page is one
  /// iteration, which is where vm mode collapses RRT registration cost.
  struct RangeTranslation {
    std::vector<AddrRange> physical_pieces;
    std::uint64_t pages_walked = 0;
  };
  RangeTranslation translate_range(const AddrRange& vrange);

  std::uint64_t mapped_pages() const noexcept { return map_.size(); }
  std::uint64_t frames_used() const noexcept {
    return vm_.enabled ? buddy_.frames_allocated() : next_frame_;
  }
  /// Currently mapped pages of the given span.
  std::uint64_t pages_of(Addr span) const;
  /// First touches where a policy-eligible huge page could not be backed
  /// (punctured pool or VA-range conflict) and a smaller size was used.
  std::uint64_t huge_fallbacks() const noexcept { return huge_fallbacks_; }
  std::uint64_t punctured_frames() const noexcept {
    return buddy_.punctured_frames();
  }

  // --- checkpoint/restore (tdn::ckpt) ----------------------------------
  /// The allocator's derived-PRNG position plus frame bookkeeping — the
  /// part of page-table state that is NOT reconstructible from the request
  /// stream (fragmentation decisions consumed PRNG samples). Snapshotted
  /// verbatim so a restored run's first-touch allocations continue the
  /// exact sample sequence the uninterrupted run would have drawn. In vm
  /// mode `vm_words` carries the buddy allocator (free lists + PRNG) in the
  /// same spirit; it is empty for legacy snapshots.
  struct AllocState {
    std::uint64_t next_frame = 0;
    std::uint64_t rng_state = 0;
    std::vector<std::uint64_t> skipped_frames;
    std::vector<std::uint64_t> vm_words;
  };
  AllocState alloc_state() const {
    AllocState s{next_frame_, rng_.state(), skipped_frames_, {}};
    if (vm_.enabled) s.vm_words = buddy_.serialize();
    return s;
  }
  void set_alloc_state(const AllocState& s) {
    next_frame_ = s.next_frame;
    rng_.set_state(s.rng_state);
    skipped_frames_ = s.skipped_frames;
    if (vm_.enabled) buddy_.restore(s.vm_words);
  }
  /// Drop every VA→PA mapping (and pending huge-page advice) but keep the
  /// allocator position (see AllocState). Checkpoint cold-normalization:
  /// retired requests' private regions must not alias live ones after
  /// restore, and the continuing lineage performs the same drop so both
  /// re-map identically.
  void ckpt_drop_mappings() {
    map_.clear();
    advised_.clear();
  }

 private:
  /// Legacy allocator: one base frame, with fragmentation injection.
  Addr allocate_frame();
  /// vm allocator: the largest policy-eligible page covering @p vaddr that
  /// the buddy pool can back.
  PageMapping allocate_vm_page(Addr vaddr);
  /// Mapping covering @p vaddr, or nullptr.
  const PageMapping* find_mapping(Addr vaddr) const;
  bool huge_candidate(Addr va_base, Addr span) const;

  PageTableConfig cfg_;
  vm::VmConfig vm_;
  /// Only base pages can be mapped (legacy, or vm with THP never).
  bool base_pages_only_;

  // Ordered by va_base so coverage lookup is one upper_bound and iteration
  // order is deterministic.
  std::map<Addr, PageMapping> map_;
  std::map<Addr, Addr> advised_;  // merged advice intervals, begin -> end

  // Legacy allocator state.
  std::uint64_t next_frame_ = 0;
  SplitMix64 rng_;
  /// Frames skipped by fragmentation injection, reusable later (keeps the
  /// physical footprint bounded).
  std::vector<std::uint64_t> skipped_frames_;

  // vm allocator state.
  vm::BuddyAllocator buddy_;
  std::uint64_t huge_fallbacks_ = 0;
};

}  // namespace tdn::mem
