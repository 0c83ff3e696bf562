// Regenerates paper Fig. 14: NoC dynamic energy normalized to S-NUCA.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::NormalizedFigure fig;
  fig.metric = "energy.noc_pj";
  fig.invert = false;
  fig.policies = {PolicyKind::RNuca, PolicyKind::TdNuca};
  fig.paper_ref = [](const std::string&) { return std::nullopt; };
  fig.paper_avg = harness::paper::kFig14AvgNocEnergyTd;
  print_normalized("Fig. 14",
                   "NoC dynamic energy normalized to S-NUCA "
                   "(paper: TD-NUCA 0.55-0.80, avg 0.64; R-NUCA avg 0.88)",
                   fig, results);
  bench::obs_section();
  return 0;
}
