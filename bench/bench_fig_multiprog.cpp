// Multiprogram colocation figure: weighted speedup and ANTT of TD-NUCA vs
// S-NUCA / R-NUCA when 2 and 4 independent apps share one machine
// (docs/multiprog.md). Each mix runs twice per policy — Partitioned (row
// bank/core partitions, TD-NUCA clusters confined per app) and Shared
// (free-for-all LLC) — so the table doubles as the partitioning ablation.
//
// Per-app slowdowns come from appK.sim.cycles against a whole-machine alone
// run of the same workload and policy (the standard colocation baseline):
//   WS   = sum_k T_alone_k / T_colo_k          (higher is better, max = N)
//   ANTT = mean_k T_colo_k / T_alone_k         (lower is better, min = 1)
//
//   --smoke    one 2-app mix under TD-NUCA: verify both apps complete, the
//              per-app LLC counters sum to the machine totals, and WS is
//              finite. Exit status reports the outcome (CI multiprog step).
#include "bench_common.hpp"
#include "multi/mix.hpp"

namespace {

using namespace bench;
using multi::PartitionMode;

const std::vector<std::string> kMixes = {
    "gauss+histo", "jacobi+kmeans", "lu+md5",
    "gauss+histo+jacobi+kmeans"};

harness::RunConfig mix_cfg(const std::string& mix, PolicyKind pol,
                           PartitionMode mode) {
  harness::RunConfig cfg;
  cfg.workload = mix;
  cfg.policy = pol;
  cfg.multi.mode = mode;
  return cfg;
}

harness::RunConfig alone_cfg(const std::string& wl, PolicyKind pol) {
  harness::RunConfig cfg;
  cfg.workload = wl;
  cfg.policy = pol;
  return cfg;
}

struct Score {
  double ws = 0.0;
  double antt = 0.0;
};

/// WS/ANTT for one colocated run given the matching alone results
/// (one per app, same order as the mix spelling).
Score score(const RunResult& colo, const std::vector<RunResult>& alone) {
  Score s;
  for (std::size_t k = 0; k < alone.size(); ++k) {
    const std::string key = "app" + std::to_string(k) + ".sim.cycles";
    const double t_colo = colo.get(key);
    const double t_alone = alone[k].get("sim.cycles");
    s.ws += t_alone / t_colo;
    s.antt += t_colo / t_alone;
  }
  s.antt /= static_cast<double>(alone.size());
  return s;
}

int smoke() {
  std::printf("multiprog smoke: gauss+histo, TD-NUCA, partitioned\n");
  const auto colo = harness::run_experiment(
      mix_cfg("gauss+histo", PolicyKind::TdNuca, PartitionMode::Partitioned));
  const auto alone_g =
      harness::run_experiment(alone_cfg("gauss", PolicyKind::TdNuca));
  const auto alone_h =
      harness::run_experiment(alone_cfg("histo", PolicyKind::TdNuca));
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    std::printf("  %-38s %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ok = false;
  };
  expect(colo.get("multi.num_apps") == 2.0, "two apps instantiated");
  expect(colo.get("app0.sim.cycles") > 0.0 && colo.get("app1.sim.cycles") > 0.0,
         "both apps ran to completion");
  expect(colo.get("tasks.completed") ==
             colo.get("app0.tasks.completed") + colo.get("app1.tasks.completed"),
         "task counts sum to machine total");
  expect(colo.get("app0.llc.requests") + colo.get("app1.llc.requests") ==
             colo.get("llc.requests"),
         "per-app LLC requests sum to total");
  expect(colo.get("sim.cycles") >= colo.get("app0.sim.cycles") &&
             colo.get("sim.cycles") >= colo.get("app1.sim.cycles"),
         "mix makespan covers both apps");
  const Score s = score(colo, {alone_g, alone_h});
  expect(s.ws > 0.0 && s.ws <= 2.0 + 1e-9, "weighted speedup in (0, 2]");
  expect(s.antt >= 0.5, "ANTT is sane");
  std::printf("multiprog smoke: %s (WS=%.3f ANTT=%.3f)\n",
              ok ? "PASS" : "FAIL", s.ws, s.antt);
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
      "Multiprog",
      "colocation: weighted speedup (WS, max = #apps) and avg normalized "
      "turnaround (ANTT, min = 1) per mix, policy and partition mode");

  const std::vector<PolicyKind> policies = {
      PolicyKind::SNuca, PolicyKind::RNuca, PolicyKind::TdNuca};
  const std::vector<PartitionMode> modes = {PartitionMode::Partitioned,
                                            PartitionMode::Shared};

  // Alone baselines first (deduplicated across mixes), then every
  // mix x mode x policy colocated run — one sweep so --jobs covers it all.
  std::vector<std::string> alone_wls;
  for (const auto& mix : kMixes) {
    for (const auto& wl : multi::MixSpec::parse(mix).apps) {
      if (std::find(alone_wls.begin(), alone_wls.end(), wl) == alone_wls.end())
        alone_wls.push_back(wl);
    }
  }
  std::vector<harness::RunConfig> cfgs;
  for (const auto& wl : alone_wls)
    for (const PolicyKind pol : policies) cfgs.push_back(alone_cfg(wl, pol));
  const std::size_t colo_base = cfgs.size();
  for (const auto& mix : kMixes)
    for (const PartitionMode mode : modes)
      for (const PolicyKind pol : policies)
        cfgs.push_back(mix_cfg(mix, pol, mode));
  const auto results = run_all(cfgs);

  auto alone_of = [&](const std::string& wl, std::size_t p) -> const RunResult& {
    const auto it = std::find(alone_wls.begin(), alone_wls.end(), wl);
    const auto w = static_cast<std::size_t>(it - alone_wls.begin());
    return results[w * policies.size() + p];
  };

  stats::Table table({"mix", "mode", "WS snuca", "WS rnuca", "WS tdnuca",
                      "ANTT snuca", "ANTT rnuca", "ANTT tdnuca", "xconf td"});
  std::vector<double> ws_td_part, ws_td_shared, ws_snuca_part;
  for (std::size_t m = 0; m < kMixes.size(); ++m) {
    const auto parts = multi::MixSpec::parse(kMixes[m]).apps;
    for (std::size_t md = 0; md < modes.size(); ++md) {
      Score s[3];
      double xconf_td = 0.0;
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const auto& colo =
            results[colo_base + (m * modes.size() + md) * policies.size() + p];
        std::vector<RunResult> alone;
        for (const auto& wl : parts) alone.push_back(alone_of(wl, p));
        s[p] = score(colo, alone);
        if (policies[p] == PolicyKind::TdNuca)
          xconf_td = colo.get("multi.cross_app_conflicts");
      }
      if (modes[md] == PartitionMode::Partitioned) {
        ws_td_part.push_back(s[2].ws);
        ws_snuca_part.push_back(s[0].ws);
      } else {
        ws_td_shared.push_back(s[2].ws);
      }
      table.add_row({kMixes[m], multi::to_string(modes[md]),
                     stats::Table::num(s[0].ws, 3), stats::Table::num(s[1].ws, 3),
                     stats::Table::num(s[2].ws, 3),
                     stats::Table::num(s[0].antt, 3),
                     stats::Table::num(s[1].antt, 3),
                     stats::Table::num(s[2].antt, 3),
                     stats::Table::num(xconf_td, 0)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "geomean WS — tdnuca partitioned: %.3f   tdnuca shared: %.3f   "
      "snuca partitioned: %.3f\n",
      harness::geometric_mean(ws_td_part),
      harness::geometric_mean(ws_td_shared),
      harness::geometric_mean(ws_snuca_part));
  bench::obs_section();
  return 0;
}
