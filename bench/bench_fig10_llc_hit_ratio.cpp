// Regenerates paper Fig. 10: absolute LLC hit ratios (no normalization).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::print_figure_header("Fig. 10", "LLC hit ratio (absolute)");
  stats::Table table({"bench", "S-NUCA", "R-NUCA", "TD-NUCA"});
  double s_sum = 0, r_sum = 0, t_sum = 0;
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const double s =
        harness::find_result(results, wl, PolicyKind::SNuca).get("llc.hit_ratio");
    const double r =
        harness::find_result(results, wl, PolicyKind::RNuca).get("llc.hit_ratio");
    const double t =
        harness::find_result(results, wl, PolicyKind::TdNuca).get("llc.hit_ratio");
    s_sum += s;
    r_sum += r;
    t_sum += t;
    table.add_row({wl, stats::Table::num(s, 3), stats::Table::num(r, 3),
                   stats::Table::num(t, 3)});
  }
  const double n = static_cast<double>(names.size());
  table.add_row({"mean", stats::Table::num(s_sum / n, 3),
                 stats::Table::num(r_sum / n, 3),
                 stats::Table::num(t_sum / n, 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("paper means: S-NUCA %.2f   R-NUCA %.2f   TD-NUCA %.2f\n",
              harness::paper::kFig10AvgHitS, harness::paper::kFig10AvgHitR,
              harness::paper::kFig10AvgHitTd);
  std::printf("note: TD-NUCA's hit ratio excludes bypassed accesses, which "
              "never touch the LLC.\n");
  bench::obs_section();
  return 0;
}
