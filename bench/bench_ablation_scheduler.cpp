// Ablation: dynamic scheduler policy (FIFO vs predecessor-affinity) under
// each NUCA design. Affinity partially restores the task/core stability that
// OS page classification needs — quantifying how much of R-NUCA's weakness
// is scheduler-induced (paper Sec. II-C), and whether TD-NUCA (which is
// scheduler-agnostic by construction) cares.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  harness::print_figure_header("Ablation", "scheduler policy (cycles)");
  stats::Table table({"bench", "policy", "fifo", "affinity", "affinity/fifo"});
  const std::vector<std::string> wls = {"kmeans", "lu"};
  const std::vector<PolicyKind> pols = {PolicyKind::SNuca, PolicyKind::RNuca,
                                        PolicyKind::TdNuca};
  std::vector<harness::RunConfig> cfgs;
  for (const auto& wl : wls) {
    for (const auto pol : pols) {
      for (int s = 0; s < 2; ++s) {
        harness::RunConfig cfg;
        cfg.workload = wl;
        cfg.policy = pol;
        cfg.sys.scheduler = s == 0 ? system::SchedulerKind::Fifo
                                   : system::SchedulerKind::Affinity;
        cfgs.push_back(std::move(cfg));
      }
    }
  }
  const auto results = run_all(cfgs);
  std::size_t i = 0;
  for (const auto& wl : wls) {
    for (const auto pol : pols) {
      const double fifo = results[i++].get("sim.cycles");
      const double affinity = results[i++].get("sim.cycles");
      table.add_row({wl, system::to_string(pol), stats::Table::num(fifo, 0),
                     stats::Table::num(affinity, 0),
                     stats::Table::num(affinity / fifo, 3)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  bench::obs_section();
  return 0;
}
