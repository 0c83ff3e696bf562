// Regenerates the paper's Sec. V-E cache-flush overhead study: fraction of
// execution time the flush engines spend processing tdnuca_flush ranges
// (paper: < 0.1% everywhere except Histo at 0.49%, which has the highest
// proportion of Out dependencies).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite({PolicyKind::TdNuca});
  harness::print_figure_header("Sec. V-E",
                               "flush-engine busy time as % of execution");
  stats::Table table({"bench", "flush busy cycles", "exec cycles (x16 cores)",
                      "percent"});
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const auto& r = harness::find_result(results, wl, PolicyKind::TdNuca);
    const double busy = r.get("flush.busy_cycles");
    const double total = r.get("sim.cycles") * 16.0;
    table.add_row({wl, stats::Table::num(busy, 0), stats::Table::num(total, 0),
                   stats::Table::num(100.0 * busy / total, 3) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("paper: <0.1%% in all benchmarks except Histo (0.49%%)\n");
  bench::obs_section();
  return 0;
}
