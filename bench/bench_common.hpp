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

/// Parse the flags every bench binary shares. Call first in main(); flags
/// not recognized here (the obs flags) are handled later by obs_section().
///
///   --jobs N | -j N          simulations run N at a time (default: all cores)
///   --checkpoint-dir PATH    serving runs publish quiescent-point snapshots
///   --checkpoint-every N     snapshot cadence in simulated cycles (k/M/G
///                            suffixes ok; serving binaries default it when
///                            only --checkpoint-dir is given)
///   --resume                 resume serving runs from the newest valid
///                            snapshot in --checkpoint-dir
///
/// A number flag whose value is missing or malformed exits with status 2.
inline void init(int argc, char** argv) {
  std::signal(SIGINT, bench_interrupt_handler);
  std::signal(SIGTERM, bench_interrupt_handler);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::string next = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--jobs" || a == "-j") {
      jobs_flag() = static_cast<unsigned>(
          number_flag(a, next, false, kUnsignedMax, false));
      ++i;
    } else if (a == "--checkpoint-dir") {
      if (i + 1 < argc) ckpt_flags().dir = argv[++i];
      else std::fprintf(stderr, "%s requires a value\n", a.c_str());
    } else if (a == "--checkpoint-every") {
      ckpt_flags().every = number_flag(a, next, true, kNeverCycle, true);
      ++i;
    } else if (a == "--resume") {
      ckpt_flags().resume = true;
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

/// Every figure binary accepts the shared observability flags (in addition
/// to --jobs/-j, parsed by init()):
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
///   --obs-workload NAME    workload to instrument (default gauss)
///   --obs-policy NAME      snuca | rnuca | tdnuca | bypass | dryrun
///
/// If any output flag is present, one instrumented experiment runs (cache
/// bypassed) and a "tdn obs" section reports the artifacts. The figure
/// output itself is unaffected: recording never changes simulation results.
inline void obs_section(int argc, char** argv) {
  harness::RunConfig cfg;
  // gauss keeps real LLC bank traffic under TD-NUCA (jacobi bypasses ~all of
  // it, which would make the default bank heatmaps identically zero).
  cfg.workload = "gauss";
  cfg.policy = PolicyKind::TdNuca;
  auto val = [&](int& i) -> std::string {
    return i + 1 < argc ? argv[++i] : "";
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") cfg.obs.trace_path = val(i);
    else if (a == "--trace-coherence") cfg.obs.trace_coherence = true;
    else if (a == "--epochs") cfg.obs.epochs_csv_path = val(i);
    else if (a == "--epochs-json") cfg.obs.epochs_json_path = val(i);
    else if (a == "--heatmaps") cfg.obs.heatmaps_path = val(i);
    else if (a == "--heatmaps-json") cfg.obs.heatmaps_json_path = val(i);
    else if (a == "--latency-report") cfg.obs.latency_report_path = val(i);
    else if (a == "--epoch-cycles")
      cfg.obs.epoch_cycles = number_flag(a, val(i), true, kNeverCycle, true);
    else if (a == "--obs-workload") {
      cfg.workload = val(i);
      // Reject typos up front with the full menu — a bad name would
      // otherwise surface as an exception mid-run. '+'-joined mixes are
      // instrumentable too, so validate each component.
      bool ok = !cfg.workload.empty();
      for (std::size_t start = 0; ok;) {
        const std::size_t plus = cfg.workload.find('+', start);
        const std::string part = cfg.workload.substr(
            start, plus == std::string::npos ? std::string::npos : plus - start);
        if (!workloads::is_valid_workload(part)) ok = false;
        if (plus == std::string::npos) break;
        start = plus + 1;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "unknown --obs-workload '%s' (valid: %s; join with '+' "
                     "for a multiprogram mix)\n",
                     cfg.workload.c_str(),
                     workloads::valid_workload_names().c_str());
        std::exit(2);
      }
    }
    else if (a == "--obs-policy") {
      const std::string p = val(i);
      if (p == "snuca") cfg.policy = PolicyKind::SNuca;
      else if (p == "rnuca") cfg.policy = PolicyKind::RNuca;
      else if (p == "tdnuca") cfg.policy = PolicyKind::TdNuca;
      else if (p == "bypass") cfg.policy = PolicyKind::TdNucaBypassOnly;
      else if (p == "dryrun") cfg.policy = PolicyKind::TdNucaDryRun;
      else std::fprintf(stderr, "unknown --obs-policy '%s'\n", p.c_str());
    }
  }
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
