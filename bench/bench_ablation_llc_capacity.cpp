// Ablation: LLC bank capacity. TD-NUCA's bypass advantage is strongest when
// the baseline is capacity-stressed; as banks grow and the working set fits,
// S-NUCA recovers and the bypass margin narrows (the paper sizes every input
// set well beyond the LLC for exactly this reason, Table II).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  harness::print_figure_header(
      "Ablation", "LLC bank capacity (workload: redblack, speedup vs S-NUCA "
                  "at the same capacity)");
  stats::Table table(
      {"bank KiB", "total MiB", "S-NUCA cycles", "TD-NUCA cycles", "speedup"});
  const std::vector<Addr> bank_kibs = {128, 256, 512, 1024};
  std::vector<harness::RunConfig> cfgs;
  for (const Addr bank_kib : bank_kibs) {
    for (const auto pol : {PolicyKind::SNuca, PolicyKind::TdNuca}) {
      harness::RunConfig cfg;
      cfg.workload = "redblack";
      cfg.policy = pol;
      cfg.sys.hierarchy.llc_bank.size_bytes = bank_kib * kKiB;
      cfgs.push_back(std::move(cfg));
    }
  }
  const auto results = run_all(cfgs);
  for (std::size_t r = 0; r < bank_kibs.size(); ++r) {
    const Addr bank_kib = bank_kibs[r];
    const double snuca = results[2 * r].get("sim.cycles");
    const double tdnuca = results[2 * r + 1].get("sim.cycles");
    table.add_row({std::to_string(bank_kib),
                   stats::Table::num(bank_kib * 16 / 1024.0, 1),
                   stats::Table::num(snuca, 0),
                   stats::Table::num(tdnuca, 0),
                   stats::Table::num(snuca / tdnuca, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  bench::obs_section();
  return 0;
}
