// tdn::multi — multiprogram colocation on one shared NUCA substrate.
//
// A mix describes N independent task-dataflow applications co-scheduled on
// disjoint core partitions of one system::Machine: one event queue, one
// NoC, one banked LLC and one DRAM subsystem, N runtimes. Mixes are spelled
// as '+'-joined workload names ("gauss+histo") so they flow through the
// existing RunConfig / results-cache plumbing as ordinary workload strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/tile_mask.hpp"
#include "common/types.hpp"

namespace tdn::multi {

/// Virtual-address stride between colocated apps: app k's VirtualSpace
/// starts at k * kAppStride + mem::kHeapBase, so app streams can never
/// alias.
inline constexpr Addr kAppStride = Addr{1} << 40;  // 1 TiB

/// Split a mesh_w x mesh_h mesh into @p n row-granular tile partitions:
/// partition k owns rows [k*h/n, (k+1)*h/n). Rows keep each partition
/// spatially contiguous (its banks are its cores' nearest), which is what a
/// colocation-aware OS scheduler would hand out. Requires mesh_h % n == 0.
/// Shared by system::TiledSystem (per-app partitions of a mix) and
/// serve::ServeSystem (per-slot partitions).
std::vector<CoreMask> row_partitions(unsigned mesh_w, unsigned mesh_h,
                                     unsigned n);

enum class PartitionMode : std::uint8_t {
  /// Each app's NUCA policy is confined to its own bank rows (and, for
  /// TD-NUCA, its replication clusters are clipped to them).
  Partitioned,
  /// Free-for-all: every app's policy maps across the whole LLC and apps
  /// contend for capacity — the ablation baseline.
  Shared,
};

const char* to_string(PartitionMode m);

/// Colocation knobs. Fingerprinted via canonical(): two runs with different
/// options never share a results-cache entry.
struct MultiOptions {
  PartitionMode mode = PartitionMode::Partitioned;

  std::string canonical() const;  ///< "part" or "shared", for fingerprints
};

/// A parsed '+'-joined mix. Single names parse to a one-app spec, which
/// run_experiment treats as an ordinary single-program run.
struct MixSpec {
  std::vector<std::string> apps;

  /// Parse "gauss+histo+jacobi". Every component must be a valid workload
  /// name (make_workload's set); unknown names fail loudly listing the
  /// valid ones.
  static MixSpec parse(std::string_view text);

  bool is_multi() const noexcept { return apps.size() > 1; }
  std::string joined() const;  ///< canonical '+'-joined form
};

}  // namespace tdn::multi
