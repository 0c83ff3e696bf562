// tdn::vm configuration — the modular virtual-memory subsystem
// (docs/memory.md).
//
// `enabled` picks the memory model behind vm::Mmu's one translation path.
// Off (the default) is the legacy model: flat per-core TLB, constant miss
// penalty, first-touch 4K frames with PRNG fragmentation injection. On:
// 4K and 2M pages from a contiguity-aware buddy allocator, a
// split-L1 + unified-L2 TLB, and a modeled radix page walk whose loads
// travel the real cache hierarchy, fronted by paging-structure caches.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace tdn::vm {

inline constexpr Addr kPage4K = 4 * kKiB;
inline constexpr Addr kPage2M = 2 * kMiB;
inline constexpr Addr kPage1G = kGiB;

/// Transparent-huge-page policy, mirroring Linux
/// /sys/kernel/mm/transparent_hugepage/enabled:
///   Never   — base 4K pages only.
///   Always  — the allocator promotes any aligned fault to the largest page
///             it can back contiguously (over-mapping past the region is
///             allowed: THP bloat).
///   Madvise — huge pages only inside ranges the runtime has advised
///             (TdNucaRuntimeHooks issues the hint from the dependency
///             region at tdnuca_register time).
enum class ThpPolicy : std::uint8_t { Never, Always, Madvise };

constexpr const char* to_string(ThpPolicy p) noexcept {
  switch (p) {
    case ThpPolicy::Never: return "never";
    case ThpPolicy::Always: return "always";
    case ThpPolicy::Madvise: return "madvise";
  }
  return "?";
}

struct VmConfig {
  bool enabled = false;
  ThpPolicy thp = ThpPolicy::Never;
  /// Physical-pool fragmentation: probability that a 2M-aligned block of a
  /// freshly grown superblock gets one of its 4K frames punctured (reserved
  /// by the "kernel"), breaking its contiguity. Subsumes the legacy
  /// PageTableConfig::fragmentation knob for vm-mode runs.
  double fragmentation = 0.15;
  std::uint64_t seed = 0x9a1b44d0'c3f72e85ull;

  // --- two-level data TLB (per core) -----------------------------------
  unsigned l1_4k_entries = 64;
  unsigned l1_2m_entries = 32;
  Cycle l1_latency = 1;
  unsigned l2_entries = 1024;  ///< unified second-level TLB (all page sizes)
  Cycle l2_latency = 8;

  // --- hardware page walker --------------------------------------------
  /// Paging-structure cache sizes by radix level (PML4E / PDPTE / PDE).
  /// A hit at level L lets the walker skip the loads above level L.
  unsigned psc_l4_entries = 16;
  unsigned psc_l3_entries = 16;
  unsigned psc_l2_entries = 64;
  Cycle psc_latency = 1;
  /// Synchronous-path charge per walker load (ISA translation inside
  /// tdnuca_register executes under the runtime lock; its walk cost is
  /// charged as cycles while the real PTE loads are fired into the
  /// hierarchy to warm/perturb it like hardware would).
  Cycle walk_charge_per_level = 30;

  /// Stable textual form for config fingerprints. Collapses to "off" when
  /// disabled so pre-vm fingerprints depend on nothing else in here.
  std::string canonical() const;
};

}  // namespace tdn::vm
