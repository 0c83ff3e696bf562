// Ablation: physical page fragmentation (DESIGN.md decision 5). Fragmented
// dependencies need multiple collapsed RRT entries, raising occupancy and
// register cost; when entries no longer fit, ranges silently fall back to
// S-NUCA interleaving (paper Sec. III-B2 / V-E).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  harness::print_figure_header(
      "Ablation", "page-table fragmentation under TD-NUCA (workload: lu)");
  stats::Table table({"fragmentation", "cycles", "rrt mean occ", "rrt max occ",
                      "runtime overhead cyc"});
  const std::vector<double> frags = {0.0, 0.15, 0.5, 0.9};
  std::vector<harness::RunConfig> cfgs;
  for (const double frag : frags) {
    harness::RunConfig cfg;
    cfg.workload = "lu";
    cfg.policy = PolicyKind::TdNuca;
    cfg.sys.page_table.fragmentation = frag;
    cfgs.push_back(std::move(cfg));
  }
  const auto results = run_all(cfgs);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    const double frag = frags[i];
    const auto& r = results[i];
    table.add_row({stats::Table::num(frag, 2),
                   stats::Table::num(r.get("sim.cycles"), 0),
                   stats::Table::num(r.get("rrt.mean_occupancy"), 1),
                   stats::Table::num(r.get("rrt.max_occupancy"), 0),
                   stats::Table::num(r.get("tdnuca.runtime_overhead_cycles"),
                                     0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("expected shape: occupancy and register overhead grow with "
              "fragmentation; performance degrades only once the 64-entry "
              "RRTs overflow.\n");
  bench::obs_section();
  return 0;
}
