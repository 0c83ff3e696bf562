// Regenerates paper Table I: the simulated machine configuration, printing
// the paper's gem5 parameters next to this reproduction's scaled values
// (scaling rules in DESIGN.md Sec. 6).
#include <cstdio>

#include "bench_common.hpp"
#include "stats/table.hpp"
#include "system/config.hpp"

int main(int argc, char** argv) {
  using namespace tdn;
  bench::init(argc, argv);
  system::SystemConfig cfg;
  stats::Table t({"parameter", "paper (gem5)", "this reproduction"});
  t.add_row({"cores", "16 OoO x86, 4-wide, 2 GHz",
             "16 in-order timing cores, load window " +
                 std::to_string(cfg.core.load_window)});
  t.add_row({"L1 caches", "32KB, 8-way, 64B, 2 cycles",
             std::to_string(cfg.hierarchy.l1.size_bytes / 1024) + "KB, " +
                 std::to_string(cfg.hierarchy.l1.associativity) + "-way, 64B, " +
                 std::to_string(cfg.hierarchy.l1_latency) + " cycles"});
  t.add_row({"TLBs", "64-entry fully assoc., 1 cycle",
             std::to_string(cfg.tlb.entries) + "-entry fully assoc., " +
                 std::to_string(cfg.tlb.hit_latency) + " cycle"});
  t.add_row({"LLC", "32MB inclusive, 2MB/core banks, 16-way, 15 cyc, pLRU",
             std::to_string(cfg.hierarchy.llc_bank.size_bytes *
                            cfg.num_cores() / (1024 * 1024)) +
                 "MB inclusive, " +
                 std::to_string(cfg.hierarchy.llc_bank.size_bytes / 1024) +
                 "KB/core banks, 16-way, " +
                 std::to_string(cfg.hierarchy.llc_latency) + " cyc, pLRU"});
  t.add_row({"coherence", "MESI, blocking states, silent evictions",
             "directory MESI, blocking directory, silent clean evictions"});
  t.add_row({"NoC", "4x4 mesh, link 1 cycle, router 1 cycle",
             std::to_string(cfg.mesh_w) + "x" + std::to_string(cfg.mesh_h) +
                 " mesh, link " + std::to_string(cfg.network.link_latency) +
                 " cycle, router " +
                 std::to_string(cfg.network.router_latency) + " cycle, " +
                 std::to_string(cfg.network.link_bytes_per_cycle) + "B/cyc links"});
  t.add_row({"RRT", "64 entries/core, 1 cycle",
             std::to_string(cfg.tdnuca.rrt_entries) + " entries/core, " +
                 std::to_string(cfg.tdnuca.rrt_latency) + " cycle"});
  t.add_row({"memory", "(gem5 DRAM)",
             std::to_string(cfg.num_memory_controllers) +
                 " MCs at mesh corners, " +
                 std::to_string(cfg.dram.access_latency) + " cycle access"});
  t.add_row({"pages", "4KB (Linux default allocator)",
             std::to_string(cfg.page_table.page_size / 1024) +
                 "KB, first-touch, fragmentation " +
                 stats::Table::num(cfg.page_table.fragmentation, 2)});
  std::printf("=== Table I: simulator configuration ===\n%s",
              t.to_string().c_str());
  bench::obs_section();
  return 0;
}
