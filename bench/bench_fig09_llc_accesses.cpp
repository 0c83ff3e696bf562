// Regenerates paper Fig. 9: LLC accesses normalized to S-NUCA.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite_srt();
  harness::NormalizedFigure fig;
  fig.metric = "llc.accesses";
  fig.invert = false;
  fig.policies = {PolicyKind::RNuca, PolicyKind::TdNuca};
  fig.paper_ref = harness::paper::fig9_llc_accesses_td;
  fig.paper_avg = harness::paper::kFig9AvgTd;
  print_normalized("Fig. 9",
                   "LLC accesses normalized to S-NUCA (paper col = TD-NUCA; "
                   "per-bench paper values are figure estimates except KNN "
                   "0.99 / MD5 0.14)",
                   fig, results);
  bench::obs_section();
  return 0;
}
