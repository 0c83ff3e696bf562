// Generic set-associative tag array with tree-pseudoLRU replacement.
//
// The array stores only metadata (the simulator never carries data values);
// the Meta type parameter lets each cache level attach its own per-line
// state: L1 lines carry a MESI state and the LLC bank that served them,
// LLC lines carry presence/dirty plus the colocated directory entry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/replacement.hpp"
#include "common/require.hpp"
#include "common/types.hpp"

namespace tdn::cache {

struct CacheGeometry {
  Addr size_bytes = 32 * kKiB;
  unsigned associativity = 8;
  unsigned line_size = 64;
  /// Low line-address bits to skip when computing the set index. LLC banks
  /// set this to log2(num_banks): under address interleaving the bank-select
  /// bits are constant within a bank, and indexing with them would leave
  /// most sets unused (a classic banked-NUCA pitfall).
  unsigned set_index_shift = 0;

  unsigned sets() const {
    return static_cast<unsigned>(size_bytes / (associativity * line_size));
  }
  void validate() const {
    TDN_REQUIRE(is_pow2(line_size), "line size must be a power of two");
    TDN_REQUIRE(is_pow2(associativity), "associativity must be a power of two");
    TDN_REQUIRE(size_bytes % (static_cast<Addr>(associativity) * line_size) == 0,
                "cache size must be divisible by way size");
    TDN_REQUIRE(is_pow2(sets()), "set count must be a power of two");
  }
};

template <typename Meta>
class CacheArray {
 public:
  struct Line {
    Addr addr = kInvalidLine;  ///< line-aligned physical address
    Meta meta{};
    bool valid() const noexcept { return addr != kInvalidLine; }
  };
  static constexpr Addr kInvalidLine = ~Addr{0};

  explicit CacheArray(CacheGeometry geo) : geo_(geo) {
    geo_.validate();
    sets_ = geo_.sets();
    lines_.resize(static_cast<std::size_t>(sets_) * geo_.associativity);
    plru_.assign(sets_, PseudoLruTree(geo_.associativity));
  }

  unsigned line_size() const noexcept { return geo_.line_size; }
  Addr line_of(Addr a) const noexcept { return align_down(a, geo_.line_size); }
  unsigned set_of(Addr line_addr) const noexcept {
    return static_cast<unsigned>(
        ((line_addr / geo_.line_size) >> geo_.set_index_shift) & (sets_ - 1));
  }

  /// Probe for a line; nullptr on miss. Does not update replacement state.
  Line* find(Addr line_addr) {
    const unsigned s = set_of(line_addr);
    for (unsigned w = 0; w < geo_.associativity; ++w) {
      Line& ln = at(s, w);
      if (ln.valid() && ln.addr == line_addr) return &ln;
    }
    return nullptr;
  }
  const Line* find(Addr line_addr) const {
    return const_cast<CacheArray*>(this)->find(line_addr);
  }

  /// Update replacement state after a hit on @p line_addr.
  void touch(Addr line_addr) {
    const unsigned s = set_of(line_addr);
    for (unsigned w = 0; w < geo_.associativity; ++w) {
      if (at(s, w).valid() && at(s, w).addr == line_addr) {
        plru_[s].touch(w);
        return;
      }
    }
    TDN_ASSERT(false && "touch on a line that is not present");
  }

  /// Allocate a frame for @p line_addr (must not already be present).
  /// If a valid victim is displaced, it is returned so the caller can write
  /// it back / invalidate copies. The new line is MRU.
  ///
  /// @p avoid, when set, marks victim addresses that must not be displaced
  /// (lines with an in-flight coherence transaction). If every way in the
  /// set is unevictable — effectively impossible for a blocking directory
  /// over a 16-way set, which would need a transaction in flight on every
  /// way — the pseudo-LRU victim is used regardless. That forced choice is
  /// a protocol hazard, so it is counted in forced_unsafe_evictions() and
  /// trips TDN_ASSERT in debug builds rather than passing silently.
  struct Eviction {
    Addr addr;
    Meta meta;
  };
  Line& allocate(Addr line_addr, std::optional<Eviction>& evicted,
                 const std::function<bool(Addr)>& avoid = {}) {
    TDN_ASSERT(find(line_addr) == nullptr);
    evicted.reset();
    const unsigned s = set_of(line_addr);
    unsigned way = geo_.associativity;  // first invalid way, if any
    for (unsigned w = 0; w < geo_.associativity; ++w) {
      if (!at(s, w).valid()) {
        way = w;
        break;
      }
    }
    if (way == geo_.associativity) {
      way = plru_[s].victim();
      if (avoid && avoid(at(s, way).addr)) {
        bool found_safe = false;
        for (unsigned w = 0; w < geo_.associativity; ++w) {
          if (!avoid(at(s, w).addr)) {
            way = w;
            found_safe = true;
            break;
          }
        }
        if (!found_safe) {
          // Every way in the set is pinned: the eviction below displaces a
          // line the caller asked to protect.
          ++forced_unsafe_evictions_;
          TDN_ASSERT(!"allocate: every way in the set is pinned; "
                      "forcing an unsafe eviction");
        }
      }
      Line& victim = at(s, way);
      evicted = Eviction{victim.addr, victim.meta};
    } else {
      ++occupied_;
    }
    Line& ln = at(s, way);
    ln.addr = line_addr;
    ln.meta = Meta{};
    plru_[s].touch(way);
    return ln;
  }

  /// Remove a line if present; returns its meta.
  std::optional<Meta> invalidate(Addr line_addr) {
    const unsigned s = set_of(line_addr);
    for (unsigned w = 0; w < geo_.associativity; ++w) {
      Line& ln = at(s, w);
      if (ln.valid() && ln.addr == line_addr) {
        Meta m = ln.meta;
        ln.addr = kInvalidLine;
        --occupied_;
        return m;
      }
    }
    return std::nullopt;
  }

  /// Visit every resident line whose address falls inside [range). The
  /// visitor may mutate the meta; if it returns true the line is invalidated.
  /// Returns the number of lines visited.
  std::uint64_t for_each_in_range(
      const AddrRange& range,
      const std::function<bool(Addr, Meta&)>& visit) {
    std::uint64_t visited = 0;
    // Only lines entirely inside the range are eligible: the paper's
    // Sec. III-D alignment rule excludes partially covered first/last lines.
    const Addr first = align_up(range.begin, geo_.line_size);
    if (first + geo_.line_size > range.end) return 0;
    // Walking line-by-line over the range beats scanning the whole array
    // whenever the range is smaller than the cache; flushed dependencies
    // are often comparable, so pick the cheaper direction.
    const std::uint64_t range_lines = (range.end - first) / geo_.line_size;
    if (range_lines < lines_.size()) {
      for (Addr la = first; la + geo_.line_size <= range.end;
           la += geo_.line_size) {
        Line* ln = find(la);
        if (ln == nullptr) continue;
        ++visited;
        if (visit(la, ln->meta)) {
          ln->addr = kInvalidLine;
          --occupied_;
        }
      }
    } else {
      for (Line& ln : lines_) {
        if (!ln.valid()) continue;
        if (ln.addr < range.begin || ln.addr + geo_.line_size > range.end) continue;
        ++visited;
        if (visit(ln.addr, ln.meta)) {
          ln.addr = kInvalidLine;
          --occupied_;
        }
      }
    }
    return visited;
  }

  /// Visit every resident line, read-only (occupancy breakdowns).
  void for_each_valid(
      const std::function<void(Addr, const Meta&)>& visit) const {
    for (const Line& ln : lines_) {
      if (ln.valid()) visit(ln.addr, ln.meta);
    }
  }

  /// Cold-reset: drop every line and restore the replacement trees to their
  /// construction state, with no eviction/writeback side effects. Checkpoint
  /// normalization (tdn::ckpt) uses this to make a warmed array
  /// indistinguishable from a freshly built one; counters (including
  /// forced_unsafe_evictions_) deliberately survive — they are history, not
  /// contents.
  void reset_all() {
    for (Line& ln : lines_) {
      ln.addr = kInvalidLine;
      ln.meta = Meta{};
    }
    plru_.assign(sets_, PseudoLruTree(geo_.associativity));
    occupied_ = 0;
  }

  std::uint64_t occupied_lines() const noexcept { return occupied_; }
  std::uint64_t capacity_lines() const noexcept { return lines_.size(); }
  /// Times allocate() had to evict a line its `avoid` predicate pinned
  /// because the whole set was pinned (see allocate()).
  std::uint64_t forced_unsafe_evictions() const noexcept {
    return forced_unsafe_evictions_;
  }

 private:
  Line& at(unsigned set, unsigned way) {
    return lines_[static_cast<std::size_t>(set) * geo_.associativity + way];
  }

  CacheGeometry geo_;
  unsigned sets_ = 0;
  std::vector<Line> lines_;
  std::vector<PseudoLruTree> plru_;
  std::uint64_t occupied_ = 0;
  std::uint64_t forced_unsafe_evictions_ = 0;
};

}  // namespace tdn::cache
