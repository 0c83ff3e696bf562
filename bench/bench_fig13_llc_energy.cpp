// Regenerates paper Fig. 13: LLC dynamic energy normalized to S-NUCA.
// Expected shape: big savings from bypassing everywhere except LU, where
// cluster replication *increases* LLC energy.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::NormalizedFigure fig;
  fig.metric = "energy.llc_pj";
  fig.invert = false;
  fig.policies = {PolicyKind::RNuca, PolicyKind::TdNuca};
  fig.paper_ref = [](const std::string&) { return std::nullopt; };
  fig.paper_avg = harness::paper::kFig13AvgLlcEnergyTd;
  print_normalized("Fig. 13",
                   "LLC dynamic energy normalized to S-NUCA "
                   "(paper: TD-NUCA avg 0.52, best Jacobi 0.10, LU > 1)",
                   fig, results);
  bench::obs_section();
  return 0;
}
