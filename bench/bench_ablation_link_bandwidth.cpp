// Ablation: NoC link bandwidth. With narrow links the mesh congests and
// placement quality acts through queueing (traffic reduction, Fig. 12); with
// wide links only raw hop latency remains. Quantifies how much of TD-NUCA's
// gain is bandwidth-mediated (DESIGN.md decision on link sizing).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  harness::print_figure_header(
      "Ablation", "link bandwidth (workload: lu, speedup of TD-NUCA over "
                  "S-NUCA at the same bandwidth)");
  stats::Table table({"bytes/cycle", "S-NUCA cycles", "TD-NUCA cycles",
                      "speedup"});
  const std::vector<unsigned> bpcs = {8, 16, 32, 64};
  std::vector<harness::RunConfig> cfgs;
  for (const unsigned bpc : bpcs) {
    for (const auto pol : {PolicyKind::SNuca, PolicyKind::TdNuca}) {
      harness::RunConfig cfg;
      cfg.workload = "lu";
      cfg.policy = pol;
      cfg.sys.network.link_bytes_per_cycle = bpc;
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = run_all(cfgs);
  for (std::size_t r = 0; r < bpcs.size(); ++r) {
    const double snuca = results[2 * r].get("sim.cycles");
    const double tdnuca = results[2 * r + 1].get("sim.cycles");
    table.add_row({std::to_string(bpcs[r]), stats::Table::num(snuca, 0),
                   stats::Table::num(tdnuca, 0),
                   stats::Table::num(snuca / tdnuca, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  bench::obs_section();
  return 0;
}
