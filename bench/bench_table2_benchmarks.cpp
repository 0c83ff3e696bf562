// Regenerates paper Table II: benchmarks, input set sizes, task counts and
// average task sizes — the paper's values next to the scaled reproduction's
// (ratios to the LLC capacity are the preserved quantity, DESIGN.md Sec. 6).
#include <cstdio>

#include "bench_common.hpp"
#include "stats/table.hpp"
#include "system/tiled_system.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace tdn;
  bench::init(argc, argv);
  struct PaperRow {
    const char* bench;
    double input_mb;
    int tasks;
    int task_kb;
  };
  const PaperRow paper[] = {
      {"gauss", 488.04, 3200, 294}, {"histo", 478.75, 1800, 528},
      {"jacobi", 264.34, 320, 4112}, {"kmeans", 314.37, 228, 1404},
      {"knn", 85.01, 448, 318},      {"lu", 73.45, 1188, 318},
      {"md5", 513.39, 128, 4096},    {"redblack", 223.96, 320, 3549},
  };
  const double paper_llc_mb = 32.0;

  stats::Table t({"bench", "paper MB (xLLC)", "ours KB (xLLC)", "paper tasks",
                  "ours tasks", "paper task KB", "ours task KB", "phases"});
  for (const auto& row : paper) {
    system::SystemConfig cfg;
    system::TiledSystem sys(cfg);
    auto wl = workloads::make_workload(row.bench, {});
    wl->build(sys);
    const auto& st = wl->stats();
    const double our_llc =
        static_cast<double>(cfg.hierarchy.llc_bank.size_bytes) *
        cfg.num_cores();
    t.add_row({row.bench,
               stats::Table::num(row.input_mb, 1) + " (" +
                   stats::Table::num(row.input_mb / paper_llc_mb, 1) + "x)",
               stats::Table::num(st.input_bytes / 1024.0, 0) + " (" +
                   stats::Table::num(st.input_bytes / our_llc, 1) + "x)",
               std::to_string(row.tasks), std::to_string(st.num_tasks),
               std::to_string(row.task_kb),
               stats::Table::num(st.avg_task_bytes / 1024.0, 0),
               std::to_string(st.num_phases)});
  }
  std::printf("=== Table II: benchmarks, problem and task sizes ===\n%s",
              t.to_string().c_str());
  bench::obs_section();
  return 0;
}
