#include "tdnuca/rrt.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace tdn::tdnuca {

bool Rrt::register_range(const AddrRange& prange, BankMask mask) {
  TDN_REQUIRE(!prange.empty(), "RRT ranges must be non-empty");
  // Older registrations keep steering the addresses they already cover (the
  // pre-split first-match lookup resolved overlaps the same way), so only
  // the gaps they leave in the range are inserted, lowest first, and entries
  // stay disjoint. One sweep from the range's start: at each address either
  // an older entry covers it (skip to that entry's end) or a gap runs up to
  // the next older entry's start.
  const std::size_t older = entries_.size();
  bool all_inserted = true;
  for (Addr at = prange.begin; at < prange.end;) {
    Addr gap_end = prange.end;
    const RrtEntry* cover = nullptr;
    for (std::size_t i = 0; i < older && cover == nullptr; ++i) {
      const AddrRange& r = entries_[i].prange;
      if (r.contains(at)) cover = &entries_[i];
      else if (at < r.begin && r.begin < gap_end) gap_end = r.begin;
    }
    if (cover != nullptr) {
      overlap_trims_.inc();  // disjoint entries: each one is met once
      at = cover->prange.end;
      continue;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(RrtEntry{{at, gap_end}, mask});
    } else {
      overflow_.inc();
      all_inserted = false;
    }
    at = gap_end;
  }
  max_occupancy_ = std::max<unsigned>(max_occupancy_,
                                      static_cast<unsigned>(entries_.size()));
  return all_inserted;
}

unsigned Rrt::invalidate_range(const AddrRange& prange) {
  const auto old = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const RrtEntry& e) {
                                  return e.prange.overlaps(prange);
                                }),
                 entries_.end());
  return static_cast<unsigned>(old - entries_.size());
}

std::optional<RrtEntry> Rrt::lookup(Addr paddr) const {
  lookups_.inc();
  for (const RrtEntry& e : entries_) {
    if (e.prange.contains(paddr)) return e;
  }
  return std::nullopt;
}

Rrt::HealResult Rrt::heal(BankMask healthy) {
  HealResult res;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->mask.empty()) {  // bypass entries reference no bank
      ++it;
      continue;
    }
    const BankMask surviving = it->mask & healthy;
    if (surviving == it->mask) {
      ++it;
    } else if (surviving.empty()) {
      it = entries_.erase(it);  // fall back to S-NUCA over the healthy set
      ++res.erased;
    } else {
      it->mask = surviving;
      ++it;
      ++res.narrowed;
    }
  }
  return res;
}

void Rrt::corrupt_entry(unsigned idx, BankMask mask) {
  TDN_REQUIRE(idx < entries_.size(), "RRT corrupt index out of range");
  entries_[idx].mask = mask;
}

AddrRange Rrt::evict_entry(unsigned idx) {
  TDN_REQUIRE(idx < entries_.size(), "RRT evict index out of range");
  const AddrRange r = entries_[idx].prange;
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(idx));
  return r;
}

}  // namespace tdn::tdnuca
