// Regenerates paper Fig. 12: total NoC data movement (bytes through all
// routers) normalized to S-NUCA.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::NormalizedFigure fig;
  fig.metric = "noc.router_bytes";
  fig.invert = false;
  fig.policies = {PolicyKind::RNuca, PolicyKind::TdNuca};
  fig.paper_ref = [](const std::string&) { return std::nullopt; };
  fig.paper_avg = harness::paper::kFig12AvgTd;
  print_normalized("Fig. 12",
                   "NoC data movement normalized to S-NUCA "
                   "(paper avgs: R-NUCA 0.84, TD-NUCA 0.62)",
                   fig, results);
  bench::obs_section();
  return 0;
}
