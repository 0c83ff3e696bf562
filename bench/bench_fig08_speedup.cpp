// Regenerates paper Fig. 8: performance speedup of R-NUCA and TD-NUCA over
// the S-NUCA baseline, per benchmark, with the paper's values alongside.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();

  harness::NormalizedFigure fig;
  fig.metric = "sim.cycles";
  fig.invert = true;  // speedup = baseline / policy
  fig.policies = {PolicyKind::RNuca, PolicyKind::TdNuca};
  fig.paper_ref = harness::paper::fig8_speedup_td;
  fig.paper_avg = harness::paper::kFig8AvgTd;
  print_normalized("Fig. 8", "speedup over S-NUCA (paper column = TD-NUCA)",
                   fig, results);

  // R-NUCA average for completeness (paper: 1.02x).
  std::vector<double> r_speedups;
  for (const auto& wl : workloads::paper_workload_names()) {
    const double base =
        harness::find_result(results, wl, PolicyKind::SNuca).get("sim.cycles");
    r_speedups.push_back(
        base /
        harness::find_result(results, wl, PolicyKind::RNuca).get("sim.cycles"));
  }
  std::printf("R-NUCA measured geomean: %.3f   paper average: %.3f\n",
              harness::geometric_mean(r_speedups),
              harness::paper::kFig8AvgRnuca);
  bench::obs_section();
  return 0;
}
