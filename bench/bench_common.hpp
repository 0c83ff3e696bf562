// Shared plumbing for the figure-regeneration binaries: one full-suite
// simulation sweep, executed on a SweepRunner thread pool and memoized on
// disk so the per-figure binaries share it. Operator's manual:
// docs/harness.md.
#pragma once

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/read_number.hpp"
#include "common/require.hpp"
#include "harness/figures.hpp"
#include "harness/paper_ref.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_runner.hpp"
#include "multi/mix.hpp"
#include "stats/table.hpp"
#include "workloads/workload.hpp"

namespace bench {

using namespace tdn;
using harness::RunResult;
using system::PolicyKind;

/// --jobs/-j value shared by every bench binary. 0 = hardware_concurrency.
inline unsigned& jobs_flag() {
  static unsigned jobs = 0;
  return jobs;
}

/// Checkpoint flags shared by the serving binaries (docs/serving.md
/// §checkpoint/restore). Applied by serving paths that opt in; ignored by
/// closed-run figures.
inline ckpt::Options& ckpt_flags() {
  static ckpt::Options opts;
  return opts;
}

/// The number a numeric flag's @p text spells ("12345", or with @p scaled
/// "50k" / "2M" / "1G"). Text that is empty, has trailing junk, overflows
/// @p max or, with @p positive, reads 0 exits with status 2 naming @p flag.
inline std::uint64_t number_flag(const std::string& flag,
                                 const std::string& text, bool scaled,
                                 std::uint64_t max, bool positive) {
  try {
    const ParsedNumber n = read_number(text, flag, scaled, max);
    if (n.length > 0 && n.length == text.size() && (n.value > 0 || !positive))
      return n.value;
  } catch (const RequireError&) {  // overflow: reported below
  }
  std::fprintf(stderr, "%s: expected a %snumber%s, got '%s'\n",
               flag.c_str(), positive ? "positive " : "",
               scaled ? " (k/M/G suffixes ok)" : "", text.c_str());
  std::exit(2);
}

/// First SIGINT/SIGTERM: request a cooperative interrupt — a serving run
/// with checkpointing drains to the next quiescent point, publishes a final
/// emergency snapshot and unwinds; every experiment that already finished
/// was flushed to the results cache atomically (fsync + rename), so an
/// interrupted sweep loses at most the in-flight runs and resumes from the
/// cache. A second signal falls back to the default disposition (kill) for
/// runs that cannot reach a quiescent point.
extern "C" inline void bench_interrupt_handler(int sig) {
  tdn::ckpt::request_interrupt();
  std::signal(sig, SIG_DFL);
}

/// The instrumented run the shared observability flags describe;
/// obs_section() runs it.
inline harness::RunConfig& obs_flags() {
  static harness::RunConfig cfg = [] {
    harness::RunConfig c;
    // gauss keeps real LLC bank traffic under TD-NUCA (jacobi bypasses ~all
    // of it, which would make the default bank heatmaps identically zero).
    c.workload = "gauss";
    c.policy = PolicyKind::TdNuca;
    return c;
  }();
  return cfg;
}

/// Parse the flags every bench binary shares. Call first in main(), before
/// anything runs; flags not listed here are the binary's own.
///
///   --jobs N | -j N          simulations run N at a time (default: all cores)
///   --checkpoint-dir PATH    serving runs publish quiescent-point snapshots
///   --checkpoint-every N     snapshot cadence in simulated cycles (k/M/G
///                            suffixes ok; serving binaries default it when
///                            only --checkpoint-dir is given)
///   --resume                 resume serving runs from the newest valid
///                            snapshot in --checkpoint-dir
///
/// and the observability flags obs_section() documents. A flag missing its
/// value, a malformed number, an unknown --obs-policy or a bad
/// --obs-workload exits with status 2 naming the flag.
inline void init(int argc, char** argv) {
  std::signal(SIGINT, bench_interrupt_handler);
  std::signal(SIGTERM, bench_interrupt_handler);
  harness::RunConfig& obs = obs_flags();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--jobs" || a == "-j") {
      jobs_flag() = static_cast<unsigned>(
          number_flag(a, value(), false, kUnsignedMax, false));
    } else if (a == "--checkpoint-dir") {
      ckpt_flags().dir = value();
    } else if (a == "--checkpoint-every") {
      ckpt_flags().every = number_flag(a, value(), true, kNeverCycle, true);
    } else if (a == "--resume") {
      ckpt_flags().resume = true;
    } else if (a == "--trace") {
      obs.obs.trace_path = value();
    } else if (a == "--trace-coherence") {
      obs.obs.trace_coherence = true;
    } else if (a == "--epochs") {
      obs.obs.epochs_csv_path = value();
    } else if (a == "--epochs-json") {
      obs.obs.epochs_json_path = value();
    } else if (a == "--heatmaps") {
      obs.obs.heatmaps_path = value();
    } else if (a == "--heatmaps-json") {
      obs.obs.heatmaps_json_path = value();
    } else if (a == "--latency-report") {
      obs.obs.latency_report_path = value();
    } else if (a == "--epoch-cycles") {
      obs.obs.epoch_cycles = number_flag(a, value(), true, kNeverCycle, true);
    } else if (a == "--obs-workload") {
      // A workload or a '+'-joined mix; a typo fails here with the full
      // menu instead of mid-run.
      obs.workload = value();
      try {
        (void)multi::MixSpec::parse(obs.workload);
      } catch (const RequireError& e) {
        std::fprintf(stderr, "%s: %s\n", a.c_str(), e.what());
        std::exit(2);
      }
    } else if (a == "--obs-policy") {
      const std::string p = value();
      if (p == "snuca") obs.policy = PolicyKind::SNuca;
      else if (p == "rnuca") obs.policy = PolicyKind::RNuca;
      else if (p == "tdnuca") obs.policy = PolicyKind::TdNuca;
      else if (p == "bypass") obs.policy = PolicyKind::TdNucaBypassOnly;
      else if (p == "dryrun") obs.policy = PolicyKind::TdNucaDryRun;
      else {
        std::fprintf(stderr,
                     "unknown --obs-policy '%s' (valid: snuca, rnuca, "
                     "tdnuca, bypass, dryrun)\n",
                     p.c_str());
        std::exit(2);
      }
    }
  }
}

/// Run a sweep of configs --jobs at a time; results come back in input
/// order and bit-identical to a serial run regardless of the pool size.
inline std::vector<RunResult> run_all(
    const std::vector<harness::RunConfig>& cfgs) {
  harness::SweepOptions opts;
  opts.jobs = jobs_flag();
  opts.progress = true;
  harness::SweepRunner runner(opts);
  try {
    return runner.run(cfgs);
  } catch (const ckpt::InterruptedError& e) {
    // The sweep pool has already stopped and every completed experiment was
    // flushed atomically to the results cache; rerunning the same command
    // picks those up as cache hits and only re-simulates the remainder.
    std::fprintf(stderr,
                 "\nsweep interrupted (%s); completed results are in the "
                 "results cache — rerun to resume\n",
                 e.what());
    std::exit(130);
  }
}

inline std::vector<RunResult> suite(const std::vector<PolicyKind>& policies) {
  std::vector<harness::RunConfig> cfgs;
  for (const auto& wl : workloads::paper_workload_names()) {
    for (const PolicyKind p : policies) {
      harness::RunConfig cfg;
      cfg.workload = wl;
      cfg.policy = p;
      cfgs.push_back(std::move(cfg));
    }
  }
  return run_all(cfgs);
}

inline std::vector<RunResult> suite_srt() {
  return suite({PolicyKind::SNuca, PolicyKind::RNuca, PolicyKind::TdNuca});
}

/// Every figure binary accepts the shared observability flags, which
/// init() reads:
///
///   --trace PATH           Chrome trace_event JSON (open in Perfetto)
///   --trace-coherence      also record per-transaction coherence instants
///   --epochs PATH          epoch time-series CSV
///   --epochs-json PATH     epoch time-series JSON
///   --heatmaps PATH        end-of-run heatmaps, aligned text
///   --heatmaps-json PATH   end-of-run heatmaps, JSON
///   --latency-report PATH  tdn-obs-report-v1 JSON: latency attribution +
///                          tail histograms + task critical path
///   --epoch-cycles N       sampling period in simulated cycles (k/M/G ok)
///   --obs-workload NAME    workload to instrument (default gauss; join
///                          names with '+' for a multiprogram mix)
///   --obs-policy NAME      snuca | rnuca | tdnuca | bypass | dryrun
///
/// If any output flag is present, one instrumented experiment runs (cache
/// bypassed) and a "tdn obs" section reports the artifacts. The figure
/// output itself is unaffected: recording never changes simulation results.
inline void obs_section() {
  const harness::RunConfig& cfg = obs_flags();
  if (!cfg.obs.any()) return;

  harness::ObsArtifacts arts;
  harness::run_experiment(cfg, /*use_cache=*/true, &arts);

  std::printf("\n== tdn obs ==\n");
  std::printf("instrumented run: %s / %s (epoch = %llu cycles)\n",
              cfg.workload.c_str(), system::to_string(cfg.policy),
              static_cast<unsigned long long>(cfg.obs.epoch_cycles));
  if (!cfg.obs.trace_path.empty()) {
    std::printf("trace:    %s  (%zu events) — open in https://ui.perfetto.dev "
                "or chrome://tracing\n",
                cfg.obs.trace_path.c_str(), arts.trace_events);
  }
  if (!cfg.obs.epochs_csv_path.empty() || !cfg.obs.epochs_json_path.empty()) {
    std::printf("epochs:   %s%s%s  (%zu rows x %zu series)\n",
                cfg.obs.epochs_csv_path.c_str(),
                !cfg.obs.epochs_csv_path.empty() &&
                        !cfg.obs.epochs_json_path.empty()
                    ? ", "
                    : "",
                cfg.obs.epochs_json_path.c_str(), arts.epoch_rows,
                arts.epoch_series);
  }
  if (!cfg.obs.heatmaps_path.empty() || !cfg.obs.heatmaps_json_path.empty()) {
    std::printf("heatmaps: %s%s%s  (%zu matrices)\n",
                cfg.obs.heatmaps_path.c_str(),
                !cfg.obs.heatmaps_path.empty() &&
                        !cfg.obs.heatmaps_json_path.empty()
                    ? ", "
                    : "",
                cfg.obs.heatmaps_json_path.c_str(), arts.heatmaps);
  }
  if (!cfg.obs.latency_report_path.empty()) {
    std::printf("latency:  %s  (%zu attributed accesses)\n",
                cfg.obs.latency_report_path.c_str(),
                arts.attributed_accesses);
  }
  for (const std::string* p :
       {&cfg.obs.trace_path, &cfg.obs.epochs_csv_path,
        &cfg.obs.epochs_json_path, &cfg.obs.heatmaps_path,
        &cfg.obs.heatmaps_json_path, &cfg.obs.latency_report_path}) {
    if (p->empty()) continue;
    if (std::find(arts.files_written.begin(), arts.files_written.end(), *p) ==
        arts.files_written.end()) {
      std::printf("WRITE FAILED: %s\n", p->c_str());
    }
  }
}

inline void print_normalized(const std::string& id, const std::string& caption,
                             const harness::NormalizedFigure& fig,
                             const std::vector<RunResult>& results) {
  harness::print_figure_header(id, caption);
  const auto [table, gm] = harness::normalized_table(fig, results);
  std::printf("%s", table.to_string().c_str());
  std::printf("measured geomean (last column): %.3f   paper average: %.3f\n",
              gm, fig.paper_avg);
}

}  // namespace bench
