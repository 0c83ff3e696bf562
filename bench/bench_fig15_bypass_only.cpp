// Regenerates paper Fig. 15: the TD-NUCA variant that only performs LLC
// bypassing, vs full TD-NUCA, both normalized to S-NUCA. Expected shape:
// bypass-only ~1.0 on Histo/KNN/LU, matching full TD-NUCA on the
// barrier-separated stencils, partial on Gauss (paper avg 1.06 vs 1.18).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite({PolicyKind::SNuca, PolicyKind::TdNucaBypassOnly,
                              PolicyKind::TdNuca});
  harness::NormalizedFigure fig;
  fig.metric = "sim.cycles";
  fig.invert = true;
  fig.policies = {PolicyKind::TdNucaBypassOnly, PolicyKind::TdNuca};
  fig.paper_ref = harness::paper::fig15_speedup_bypass_only;
  fig.paper_avg = harness::paper::kFig8AvgTd;
  print_normalized(
      "Fig. 15",
      "speedup over S-NUCA: bypass-only variant vs full TD-NUCA "
      "(paper column = bypass-only)",
      fig, results);

  std::vector<double> byp;
  for (const auto& wl : workloads::paper_workload_names()) {
    const double base =
        harness::find_result(results, wl, PolicyKind::SNuca).get("sim.cycles");
    byp.push_back(base / harness::find_result(results, wl,
                                              PolicyKind::TdNucaBypassOnly)
                             .get("sim.cycles"));
  }
  std::printf("bypass-only measured geomean: %.3f   paper average: %.3f\n",
              harness::geometric_mean(byp),
              harness::paper::kFig15AvgBypassOnly);
  bench::obs_section();
  return 0;
}
