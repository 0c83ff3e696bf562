// Experiment runner: builds a TiledSystem, constructs a workload's task
// graph in it, runs to completion and extracts every metric the paper's
// figures need. Results are memoized on disk (results_cache.hpp) keyed by
// the full configuration fingerprint, so the per-figure bench binaries share
// one simulation sweep.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ckpt/options.hpp"
#include "multi/mix.hpp"
#include "obs/recorder.hpp"
#include "serve/options.hpp"
#include "system/tiled_system.hpp"
#include "workloads/workload.hpp"

namespace tdn::harness {

/// Observability sinks for one experiment. Empty paths disable the
/// corresponding sink; any non-empty path makes the run bypass the results
/// cache (a memoized run never re-simulates, so it cannot produce a trace).
/// None of these fields enter the fingerprint — recording never changes the
/// simulation's results.
struct ObsOptions {
  std::string trace_path;         ///< Chrome trace_event JSON (Perfetto)
  std::string epochs_csv_path;    ///< epoch time-series, CSV
  std::string epochs_json_path;   ///< epoch time-series, JSON
  std::string heatmaps_path;      ///< end-of-run heatmaps, aligned text
  std::string heatmaps_json_path; ///< end-of-run heatmaps, JSON
  /// tdn-obs-report-v1 JSON: latency attribution histograms + task
  /// critical-path analysis (docs/observability.md). Like every artifact
  /// above, written atomically (tdn::write_file), so a watcher never reads
  /// a torn file.
  std::string latency_report_path;
  Cycle epoch_cycles = 10'000;
  bool trace_coherence = false;   ///< per-transaction instants (high volume)

  bool any() const noexcept {
    return !trace_path.empty() || !epochs_csv_path.empty() ||
           !epochs_json_path.empty() || !heatmaps_path.empty() ||
           !heatmaps_json_path.empty() || !latency_report_path.empty();
  }
  obs::RecorderConfig recorder_config() const;
};

/// What an obs-enabled run produced (sizes + the files actually written).
struct ObsArtifacts {
  std::size_t trace_events = 0;
  std::size_t epoch_rows = 0;
  std::size_t epoch_series = 0;
  std::size_t heatmaps = 0;
  /// Accesses finalized by the latency-attribution sink (primary + merged
  /// misses); zero unless a latency report was requested.
  std::size_t attributed_accesses = 0;
  std::vector<std::string> files_written;
};

struct RunConfig {
  /// A workload name, or a '+'-joined mix ("gauss+histo"): mixes run on a
  /// multi::MultiProgramSystem and report per-app appK.* metrics alongside
  /// the shared-machine totals. With serve.arrival set, the same string
  /// names the *tenants* of an open-arrival serving run instead (single
  /// names allowed: a one-tenant service).
  std::string workload;
  system::PolicyKind policy = system::PolicyKind::SNuca;
  workloads::WorkloadParams params{};
  system::SystemConfig sys{};  ///< policy field is overridden by `policy`
  multi::MultiOptions multi{}; ///< colocation knobs; ignored for single apps
  serve::ServeOptions serve{}; ///< open-arrival serving (docs/serving.md)
  ObsOptions obs{};            ///< not fingerprinted; see ObsOptions
  /// Quiescent-point checkpointing for serving runs (docs/serving.md
  /// §checkpoint/restore). Only the simulated-behavior knobs (cadence,
  /// settle grace) enter the fingerprint; dir/resume/keep are harness
  /// plumbing. Enabling it bypasses the results cache — a memoized run
  /// never simulates, so it cannot publish snapshots.
  ckpt::Options ckpt{};

  std::uint64_t fingerprint() const;
  /// One-line human description (workload, policy, params, fault plan) —
  /// attached to sweep errors so a failure out of hundreds of runs
  /// identifies itself.
  std::string describe() const;
};

struct RunResult {
  std::string workload;
  std::string policy;
  std::map<std::string, double> metrics;
  /// True when the result was served from the on-disk results cache.
  bool from_cache = false;
  /// Wall clock of this run (simulate or cache load), filled by SweepRunner.
  /// Deliberately NOT part of `metrics`: metrics are bit-identical between
  /// serial and parallel sweeps, wall clock is not.
  double wall_ms = 0.0;

  double get(const std::string& key) const;
  bool has(const std::string& key) const { return metrics.count(key) != 0; }
};

/// Run one experiment (or fetch it from the cache). When cfg.obs requests
/// any sink the cache is bypassed, the artifacts are written to the
/// configured paths, and @p artifacts (if non-null) reports what was
/// produced.
RunResult run_experiment(const RunConfig& cfg, bool use_cache = true,
                         ObsArtifacts* artifacts = nullptr);

/// Run the full 8-benchmark suite for the given policies, `jobs` at a time
/// on a SweepRunner pool (0 = hardware_concurrency, 1 = serial). Results are
/// in (workload, policy) input order and bit-identical for every jobs value.
std::vector<RunResult> run_suite(const std::vector<system::PolicyKind>& policies,
                                 const workloads::WorkloadParams& params = {},
                                 bool use_cache = true, unsigned jobs = 1);

/// Pull the result for (workload, policy) out of a suite result set.
const RunResult& find_result(const std::vector<RunResult>& results,
                             const std::string& workload,
                             system::PolicyKind policy);

double geometric_mean(const std::vector<double>& xs);

}  // namespace tdn::harness
