// Regenerates the paper's Sec. V-E RRT occupancy study: mean and maximum
// RRT entries in use per benchmark (paper: 14.71 mean; max 23 for
// Gauss/Histo/Kmeans/KNN, up to 59 in Redblack; 64 entries always suffice).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite({PolicyKind::TdNuca});
  harness::print_figure_header("Sec. V-E", "RRT occupancy (entries per core)");
  stats::Table table({"bench", "mean", "max", "lookups", "capacity"});
  double mean_sum = 0;
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const auto& r = harness::find_result(results, wl, PolicyKind::TdNuca);
    mean_sum += r.get("rrt.mean_occupancy");
    table.add_row({wl, stats::Table::num(r.get("rrt.mean_occupancy"), 2),
                   stats::Table::num(r.get("rrt.max_occupancy"), 0),
                   stats::Table::num(r.get("rrt.lookups"), 0), "64"});
  }
  table.add_row({"mean", stats::Table::num(mean_sum / names.size(), 2), "", "",
                 ""});
  std::printf("%s", table.to_string().c_str());
  std::printf("paper: 14.71 mean occupancy; maxima 23-59 depending on task "
              "size; 64 entries always sufficient\n");
  bench::obs_section();
  return 0;
}
