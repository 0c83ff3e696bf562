// Regenerates the paper's Sec. V-E RRT latency sensitivity study: TD-NUCA
// performance with the RRT lookup latency swept from 0 to 4 cycles,
// normalized to the 0-cycle (ideal) RRT.
// Paper: 1 cycle costs 0.1%; 2/3/4 cycles cost 0.5% / 1.1% / 1.9% on average.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const std::vector<std::string> wls = {"lu", "knn", "jacobi"};
  harness::print_figure_header(
      "Sec. V-E", "RRT latency sweep (slowdown vs ideal 0-cycle RRT)");
  stats::Table table({"bench", "1 cyc", "2 cyc", "3 cyc", "4 cyc"});
  std::vector<double> overhead_sum(5, 0.0);
  std::vector<harness::RunConfig> cfgs;
  for (const auto& wl : wls) {
    for (Cycle lat = 0; lat <= 4; ++lat) {
      harness::RunConfig cfg;
      cfg.workload = wl;
      cfg.policy = PolicyKind::TdNuca;
      cfg.sys.tdnuca.rrt_latency = lat;
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = run_all(cfgs);
  for (std::size_t w = 0; w < wls.size(); ++w) {
    const auto& wl = wls[w];
    std::vector<double> cycles;
    for (int lat = 0; lat <= 4; ++lat)
      cycles.push_back(results[5 * w + lat].get("sim.cycles"));
    std::vector<std::string> row{wl};
    for (int lat = 1; lat <= 4; ++lat) {
      const double slowdown = cycles[lat] / cycles[0] - 1.0;
      overhead_sum[lat] += slowdown;
      row.push_back(stats::Table::num(100.0 * slowdown, 2) + "%");
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"mean"};
  for (int lat = 1; lat <= 4; ++lat)
    avg.push_back(
        stats::Table::num(100.0 * overhead_sum[lat] / wls.size(), 2) + "%");
  table.add_row(std::move(avg));
  std::printf("%s", table.to_string().c_str());
  std::printf("paper averages: 1 cyc 0.1%%, 2 cyc 0.5%%, 3 cyc 1.1%%, "
              "4 cyc 1.9%%\n");
  bench::obs_section();
  return 0;
}
