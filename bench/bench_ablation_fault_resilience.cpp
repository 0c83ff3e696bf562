// Ablation: fault resilience. How much of TD-NUCA's speedup over S-NUCA
// survives LLC bank failures? Both policies degrade through the shared
// HealthState (docs/faults.md): S-NUCA re-interleaves over the healthy set,
// TD-NUCA additionally heals its RRTs and narrows cluster maps. The
// end-of-run invariant checker runs on every simulation, so each cell in
// this table doubles as a degraded-mode correctness check.
//
//   --smoke    one workload, one bank failure: verify the run completes,
//              invariants hold, and metrics differ from the healthy run.
//              Exit status reports the outcome (CI fault-injection step).
#include "bench_common.hpp"

namespace {

using namespace bench;

// Mid-run injection points for the default-scale suite (shortest healthy
// makespan ~156k cycles): the first bank dies at 50k, the second at 100k.
const char* kOneFault = "bank_fail@3:cycle=50k";
const char* kTwoFaults = "bank_fail@3:cycle=50k,bank_fail@9:cycle=100k";

harness::RunConfig make_cfg(const std::string& wl, PolicyKind pol,
                            const std::string& plan) {
  harness::RunConfig cfg;
  cfg.workload = wl;
  cfg.policy = pol;
  cfg.sys.fault.plan = plan;
  return cfg;
}

int smoke() {
  std::printf("fault smoke: kmeans, TD-NUCA, %s\n", kOneFault);
  const auto healthy =
      harness::run_experiment(make_cfg("kmeans", PolicyKind::TdNuca, ""));
  // The faulted run exercises bank evacuation, RRT healing and the
  // invariant checker (run_experiment throws on a violation).
  const auto faulted = harness::run_experiment(
      make_cfg("kmeans", PolicyKind::TdNuca, kOneFault));
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    std::printf("  %-34s %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ok = false;
  };
  expect(faulted.get("tasks.completed") == healthy.get("tasks.completed"),
         "all tasks completed");
  expect(faulted.get("fault.banks_failed") == 1.0, "bank failure injected");
  expect(faulted.get("fault.healthy_banks") == 15.0, "15 banks survive");
  expect(faulted.get("sim.cycles") != healthy.get("sim.cycles"),
         "results differ from healthy");
  std::printf("fault smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return smoke();
  }

  harness::print_figure_header(
      "Ablation", "fault resilience (TD-NUCA speedup over S-NUCA under 0/1/2 "
                  "failed LLC banks; retained = 2-fail/healthy)");
  const auto workloads = workloads::paper_workload_names();
  const std::vector<std::string> plans = {"", kOneFault, kTwoFaults};
  std::vector<harness::RunConfig> cfgs;
  for (const auto& wl : workloads)
    for (const std::string& plan : plans)
      for (const auto pol : {PolicyKind::SNuca, PolicyKind::TdNuca})
        cfgs.push_back(make_cfg(wl, pol, plan));
  const auto results = run_all(cfgs);

  stats::Table table({"workload", "speedup 0f", "speedup 1f", "speedup 2f",
                      "retained", "evac lines", "bounced"});
  std::vector<double> retained;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    double speedup[3];
    for (std::size_t f = 0; f < plans.size(); ++f) {
      const auto& snuca = results[(w * 3 + f) * 2];
      const auto& tdnuca = results[(w * 3 + f) * 2 + 1];
      speedup[f] = snuca.get("sim.cycles") / tdnuca.get("sim.cycles");
    }
    const auto& two_fail_td = results[(w * 3 + 2) * 2 + 1];
    retained.push_back(speedup[2] / speedup[0]);
    table.add_row({workloads[w], stats::Table::num(speedup[0], 3),
                   stats::Table::num(speedup[1], 3),
                   stats::Table::num(speedup[2], 3),
                   stats::Table::num(retained.back(), 3),
                   stats::Table::num(two_fail_td.get("fault.evacuated_lines"), 0),
                   stats::Table::num(two_fail_td.get("fault.bounced_requests"), 0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("geomean retained speedup under 2 failed banks: %.3f\n",
              harness::geometric_mean(retained));
  bench::obs_section();
  return 0;
}
