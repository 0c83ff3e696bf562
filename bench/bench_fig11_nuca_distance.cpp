// Regenerates paper Fig. 11: average NUCA distance (hops from requesting
// core to serving LLC bank; bypassed accesses excluded, local bank = 0).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::print_figure_header("Fig. 11", "average NUCA distance (hops)");
  stats::Table table({"bench", "S-NUCA", "R-NUCA", "TD-NUCA"});
  double s_sum = 0, r_sum = 0, t_sum = 0;
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const double s = harness::find_result(results, wl, PolicyKind::SNuca)
                         .get("nuca.mean_distance");
    const double r = harness::find_result(results, wl, PolicyKind::RNuca)
                         .get("nuca.mean_distance");
    const double t = harness::find_result(results, wl, PolicyKind::TdNuca)
                         .get("nuca.mean_distance");
    s_sum += s;
    r_sum += r;
    t_sum += t;
    table.add_row({wl, stats::Table::num(s, 2), stats::Table::num(r, 2),
                   stats::Table::num(t, 2)});
  }
  const double n = static_cast<double>(names.size());
  table.add_row({"mean", stats::Table::num(s_sum / n, 2),
                 stats::Table::num(r_sum / n, 2),
                 stats::Table::num(t_sum / n, 2)});
  std::printf("%s", table.to_string().c_str());
  std::printf("paper means: S-NUCA %.2f (theoretical 2.5)   R-NUCA %.2f   "
              "TD-NUCA %.2f\n",
              harness::paper::kFig11DistS, harness::paper::kFig11DistR,
              harness::paper::kFig11DistTd);
  bench::obs_section();
  return 0;
}
