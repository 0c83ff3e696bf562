// Open-arrival serving figure (docs/serving.md): tail sojourn, goodput and
// shed rate when task-graph requests arrive on a live arrival process and an
// admission controller guards a bounded pending queue.
//
// Two tables beyond the paper's closed-run scope:
//   A. offered-load sweep — one arrival process, tightening mean gap, both
//      admission policies: where the knee is and what shedding buys.
//   B. arrival-process x NUCA-policy grid — the same offered load shaped as
//      poisson / bursty MMPP / diurnal replay under each mapping policy,
//      plus an adaptive TD-NUCA<->R-NUCA switching row.
//
//   --smoke    one serving run: verify admission conservation (offered =
//              shed + completed), queue bound, tail ordering and per-tenant
//              QoS splits. Exit status reports the outcome (CI serving step).
//              Honors the shared checkpoint flags (--checkpoint-dir,
//              --checkpoint-every, --resume; bench_common.hpp) and prints
//              the config fingerprint and a metrics hash, so the CI
//              kill-and-resume job can diff an interrupted+resumed run
//              against an uninterrupted reference.
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "common/prng.hpp"
#include "serve/options.hpp"

namespace {

using namespace bench;
using serve::AdmissionPolicy;

constexpr const char* kTenants = "gauss+histo";
constexpr Cycle kHorizon = 600'000;
// Small request graphs (~1/8 of the closed-run footprint) keep the mean
// service time well under the lightest arrival gap so the sweep actually
// crosses the knee instead of starting saturated.
constexpr double kRequestScale = 0.02;

harness::RunConfig serve_cfg(const std::string& arrival, PolicyKind pol,
                             AdmissionPolicy adm = AdmissionPolicy::Reject) {
  harness::RunConfig cfg;
  cfg.workload = kTenants;
  cfg.policy = pol;
  cfg.serve.arrival = arrival;
  cfg.serve.horizon = kHorizon;
  cfg.serve.admission = adm;
  cfg.serve.request_scale = kRequestScale;
  return cfg;
}

std::uint64_t metrics_hash(const std::map<std::string, double>& m) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [k, v] : m) os << k << ',' << v << '\n';
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

int smoke() {
  std::printf("serving smoke: %s, poisson arrivals, TD-NUCA\n", kTenants);
  auto cfg = serve_cfg("poisson:gap=25k", PolicyKind::TdNuca);
  cfg.serve.horizon = 200'000;
  cfg.ckpt = ckpt_flags();
  if (!cfg.ckpt.dir.empty() && cfg.ckpt.every == 0)
    cfg.ckpt.every = 50'000;  // --checkpoint-dir alone gets a sane cadence
  harness::RunResult res;
  try {
    res = harness::run_experiment(cfg);
  } catch (const ckpt::InterruptedError& e) {
    std::printf("serving smoke: INTERRUPTED (%s)\n", e.what());
    return 130;
  }
  std::printf("  fingerprint: 0x%016llx\n",
              static_cast<unsigned long long>(cfg.fingerprint()));
  std::printf("  metrics hash: 0x%016llx over %zu keys\n",
              static_cast<unsigned long long>(metrics_hash(res.metrics)),
              res.metrics.size());
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    std::printf("  %-42s %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ok = false;
  };
  expect(res.get("serve.offered") > 0.0, "requests arrived");
  expect(res.get("serve.offered") ==
             res.get("serve.shed") + res.get("serve.completed"),
         "admission conserves requests");
  expect(res.get("serve.queue.max_depth") <= cfg.serve.max_pending,
         "pending queue never exceeds its bound");
  const double p50 = res.get("serve.sojourn.p50");
  const double p99 = res.get("serve.sojourn.p99");
  const double p999 = res.get("serve.sojourn.p999");
  expect(p50 > 0.0 && p99 >= p50 && p999 >= p99,
         "sojourn tail percentiles are ordered");
  expect(res.get("serve.goodput") > 0.0, "goodput is positive");
  expect(res.get("serve.tenant0.offered") + res.get("serve.tenant1.offered") ==
             res.get("serve.offered"),
         "per-tenant offered sums to total");
  expect(res.get("serve.tenant0.completed") +
                 res.get("serve.tenant1.completed") ==
             res.get("serve.completed"),
         "per-tenant completed sums to total");
  expect(res.get("tasks.completed") > 0.0, "request task graphs executed");
  std::printf("serving smoke: %s (offered=%.0f completed=%.0f p99=%.0f)\n",
              ok ? "PASS" : "FAIL", res.get("serve.offered"),
              res.get("serve.completed"), p99);
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
      "Serving",
      "open-arrival serving: p99/p999 sojourn (cycles), goodput "
      "(requests/Mcycle) and shed rate under admission control");

  // --- Table A: offered-load sweep ---------------------------------------
  const std::vector<std::string> load_gaps = {"100k", "50k", "25k", "12k"};
  const std::vector<AdmissionPolicy> admissions = {AdmissionPolicy::Reject,
                                                   AdmissionPolicy::DropOldest};
  std::vector<harness::RunConfig> cfgs;
  for (const auto& gap : load_gaps)
    for (const AdmissionPolicy adm : admissions)
      cfgs.push_back(
          serve_cfg("poisson:gap=" + gap, PolicyKind::TdNuca, adm));

  // --- Table B: arrival process x policy (+ adaptive row) -----------------
  const std::vector<std::pair<std::string, std::string>> processes = {
      {"poisson", "poisson:gap=20k"},
      {"mmpp", "mmpp:gap=40k,burst=5k,dwell=60k"},
      {"diurnal", "diurnal:gap=20k,amp=0.8,period=200k"}};
  const std::vector<PolicyKind> policies = {
      PolicyKind::SNuca, PolicyKind::RNuca, PolicyKind::TdNuca};
  const std::size_t grid_base = cfgs.size();
  for (const auto& [name, spec] : processes)
    for (const PolicyKind pol : policies) cfgs.push_back(serve_cfg(spec, pol));
  // Adaptive: tenant 1 dominates arrivals, so the epoch sampler switches
  // future dispatches off TD-NUCA; compare against the static rows above.
  const std::size_t adaptive_idx = cfgs.size();
  {
    auto cfg = serve_cfg("mmpp:gap=40k,burst=5k,dwell=60k", PolicyKind::TdNuca);
    cfg.serve.weights = "1:3";
    cfg.serve.adaptive = true;
    cfgs.push_back(std::move(cfg));
  }

  const auto results = run_all(cfgs);

  stats::Table load({"mean gap", "admission", "offered", "shed rate",
                     "svc mean", "p99 sojourn", "p999 sojourn", "goodput"});
  for (std::size_t g = 0; g < load_gaps.size(); ++g) {
    for (std::size_t a = 0; a < admissions.size(); ++a) {
      const auto& r = results[g * admissions.size() + a];
      load.add_row({load_gaps[g], serve::to_string(admissions[a]),
                    stats::Table::num(r.get("serve.offered"), 0),
                    stats::Table::num(r.get("serve.shed_rate"), 3),
                    stats::Table::num(r.get("serve.service.mean"), 0),
                    stats::Table::num(r.get("serve.sojourn.p99"), 0),
                    stats::Table::num(r.get("serve.sojourn.p999"), 0),
                    stats::Table::num(r.get("serve.goodput"), 2)});
    }
  }
  std::printf("offered-load sweep — %s, poisson arrivals, TD-NUCA:\n%s\n",
              kTenants, load.to_string().c_str());

  stats::Table grid({"arrivals", "policy", "p99 sojourn", "p999 sojourn",
                     "goodput", "shed rate", "switches"});
  for (std::size_t p = 0; p < processes.size(); ++p) {
    for (std::size_t k = 0; k < policies.size(); ++k) {
      const auto& r = results[grid_base + p * policies.size() + k];
      grid.add_row({processes[p].first, system::to_string(policies[k]),
                    stats::Table::num(r.get("serve.sojourn.p99"), 0),
                    stats::Table::num(r.get("serve.sojourn.p999"), 0),
                    stats::Table::num(r.get("serve.goodput"), 2),
                    stats::Table::num(r.get("serve.shed_rate"), 3),
                    stats::Table::num(r.get("serve.policy_switches"), 0)});
    }
  }
  {
    const auto& r = results[adaptive_idx];
    grid.add_row({"mmpp 1:3", "adaptive td<->r",
                  stats::Table::num(r.get("serve.sojourn.p99"), 0),
                  stats::Table::num(r.get("serve.sojourn.p999"), 0),
                  stats::Table::num(r.get("serve.goodput"), 2),
                  stats::Table::num(r.get("serve.shed_rate"), 3),
                  stats::Table::num(r.get("serve.policy_switches"), 0)});
  }
  std::printf("arrival process x policy — %s:\n%s", kTenants,
              grid.to_string().c_str());
  bench::obs_section();
  return 0;
}
