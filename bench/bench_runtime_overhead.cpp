// Regenerates the paper's Sec. V-E runtime-extension overhead study: the
// runtime performs all TD-NUCA bookkeeping (RTCacheDirectory, placement
// decisions) but never executes the ISA instructions, so the cache behaves
// as S-NUCA; the slowdown vs plain S-NUCA is the software overhead.
// Paper: 0.01% average, below 0.03% in all benchmarks.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite({PolicyKind::SNuca, PolicyKind::TdNucaDryRun});
  harness::print_figure_header(
      "Sec. V-E", "runtime-extension software overhead (dry-run vs S-NUCA)");
  stats::Table table(
      {"bench", "S-NUCA cycles", "dry-run cycles", "overhead"});
  double sum = 0;
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const double s =
        harness::find_result(results, wl, PolicyKind::SNuca).get("sim.cycles");
    const double d = harness::find_result(results, wl, PolicyKind::TdNucaDryRun)
                         .get("sim.cycles");
    const double ovh = d / s - 1.0;
    sum += ovh;
    table.add_row({wl, stats::Table::num(s, 0), stats::Table::num(d, 0),
                   stats::Table::num(100.0 * ovh, 3) + "%"});
  }
  table.add_row({"mean", "", "",
                 stats::Table::num(100.0 * sum / names.size(), 3) + "%"});
  std::printf("%s", table.to_string().c_str());
  std::printf("paper: 0.01%% average, <0.03%% everywhere (dominated by the "
              "placement-decision algorithm)\n");
  bench::obs_section();
  return 0;
}
