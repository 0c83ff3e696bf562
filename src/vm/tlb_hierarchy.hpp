// Per-core data TLB, one class for both memory models; only the geometry
// differs:
//  * legacy (vm disabled): one fully-associative true-LRU array of
//    `tlb.entries` base pages at `tlb.hit_latency`, no second level;
//  * vm: split L1 (one array per page size, as x86 cores split 4K/2M/1G
//    dTLBs) backed by a unified L2 ("STLB") holding entries of every size.
// Entries carry the physical frame, as hardware TLBs do, so a hit
// translates without the page table. invalidate_page drops the covering
// entry from every level and counts one shootdown.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "vm/config.hpp"

namespace tdn::vm {

/// One cached translation: the page table's mapping, frame included.
using TlbEntry = mem::PageTable::PageMapping;

/// One fully-associative true-LRU translation array. The unified level
/// stores mixed spans; lookup probes the 4K/2M/1G alignments of the address
/// (three tag compares — how hardware STLBs hash mixed sizes is modeled
/// away). Also the walker's paging-structure caches, whose entries carry no
/// frame.
class TlbArray {
 public:
  /// @p fixed_span != 0 pins every entry to one span (L1 arrays and the
  /// paging-structure caches): lookups probe a single alignment. 0 = mixed
  /// spans (unified L2), probing the 4K/2M/1G alignments.
  explicit TlbArray(unsigned entries, Addr fixed_span = 0)
      : entries_(entries), fixed_span_(fixed_span) {}

  /// Entry covering @p vaddr, promoted to MRU, or nullptr. The pointer
  /// stays valid until that entry is evicted, invalidated or cleared.
  const TlbEntry* lookup(Addr vaddr);
  void fill(Addr va_base, Addr span, Addr pa_base = 0);
  /// Drop the entry covering @p vaddr, if any; returns whether one existed.
  bool invalidate(Addr vaddr);
  void clear();
  Addr fixed_span() const noexcept { return fixed_span_; }

 private:
  using Lru = std::list<TlbEntry>;  // front = most recent
  using Map = std::unordered_map<Addr, Lru::iterator>;  // keyed by va_base
  Map::iterator find(Addr vaddr);

  unsigned entries_;
  Addr fixed_span_;
  Lru lru_;
  Map map_;
};

class TlbHierarchy {
 public:
  /// vm geometry: split L1 per page size plus the unified L2.
  explicit TlbHierarchy(const VmConfig& cfg);
  /// Legacy geometry: one array of @p cfg.entries pages of @p page_size.
  TlbHierarchy(const mem::TlbConfig& cfg, Addr page_size);

  struct Result {
    bool hit = false;
    Cycle latency = 0;  ///< probe latency (miss = full probe of every level)
    Addr paddr = 0;     ///< translation of the looked-up address (hits only)
  };
  /// Probe L1 (by the page size of the translation, unknown to the
  /// requester: the split arrays are probed in parallel, so one L1
  /// latency) then L2. An L2 hit refills the L1 array of its size class.
  Result lookup(Addr vaddr);
  /// Install a translation in L2 and the size-appropriate L1 array.
  /// @p pa_base may stay 0 for callers that model reach, not translation.
  void fill(Addr va_base, Addr span, Addr pa_base = 0);
  /// TLB shootdown for the page covering @p vaddr.
  void invalidate_page(Addr vaddr);
  /// Drop every entry WITHOUT counting shootdowns. Checkpoint cold
  /// normalization is a simulation artifact, not an architectural event,
  /// and the count must not depend on occupancy at the checkpoint (a
  /// restored lineage's TLB is empty where the continuing one's was warm).
  void ckpt_cold_reset();

  std::uint64_t l2_hits() const noexcept { return l2_hits_; }
  std::uint64_t hits() const noexcept { return l1_hits_ + l2_hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t shootdowns() const noexcept { return shootdowns_; }

 private:
  TlbArray& l1_for(Addr span);

  std::vector<TlbArray> l1_;  // ascending fixed spans
  TlbArray l2_{0};            // zero entries: no second level
  Cycle l1_latency_;
  Cycle l2_latency_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t shootdowns_ = 0;
};

}  // namespace tdn::vm
