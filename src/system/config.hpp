// SystemConfig — everything needed to build one simulated machine + runtime
// (paper Table I, scaled; DESIGN.md Sec. 6). The fingerprint() hash keys the
// harness results cache: identical configs produce bit-identical results.
#pragma once

#include <cstdint>
#include <string>

#include "coherence/config.hpp"
#include "common/types.hpp"
#include "core/sim_core.hpp"
#include "fault/injector.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "noc/network.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "runtime/runtime_system.hpp"
#include "tdnuca/runtime_hooks.hpp"
#include "vm/config.hpp"

namespace tdn::system {

enum class PolicyKind : std::uint8_t {
  SNuca,             ///< baseline static interleaving
  RNuca,             ///< OS page classification + replication enhancement
  TdNuca,            ///< full TD-NUCA
  TdNucaBypassOnly,  ///< Fig. 15 variant
  TdNucaDryRun,      ///< Sec. V-E runtime-overhead study: bookkeeping only,
                     ///< cache behaves as S-NUCA
};

const char* to_string(PolicyKind k);

enum class SchedulerKind : std::uint8_t { Fifo, Affinity };

struct SystemConfig {
  unsigned mesh_w = 4;
  unsigned mesh_h = 4;
  PolicyKind policy = PolicyKind::SNuca;
  SchedulerKind scheduler = SchedulerKind::Fifo;

  coherence::HierarchyConfig hierarchy{};
  noc::NetworkConfig network{};
  mem::DramConfig dram{};
  unsigned num_memory_controllers = 8;
  mem::PageTableConfig page_table{};
  mem::TlbConfig tlb{};
  /// tdn::vm virtual-memory subsystem (docs/memory.md). Disabled by
  /// default: the legacy memory model (flat TLB, first-touch 4K frames).
  vm::VmConfig vm{};
  core::CoreConfig core{};
  runtime::RuntimeConfig runtime{};
  nuca::TdNucaConfig tdnuca{};
  tdnuca::HooksConfig hooks{};
  fault::FaultConfig fault{};

  unsigned num_cores() const { return mesh_w * mesh_h; }

  /// Stable hash over every field, for the results cache.
  std::uint64_t fingerprint() const;
};

}  // namespace tdn::system
