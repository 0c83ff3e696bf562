#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/jsonfmt.hpp"
#include "common/prng.hpp"
#include "common/require.hpp"
#include "common/write_file.hpp"
#include "harness/results_cache.hpp"
#include "harness/sweep_runner.hpp"
#include "multi/multi_system.hpp"
#include "obs/critical_path.hpp"
#include "serve/serve_system.hpp"

namespace tdn::harness {

namespace {

std::string cache_key(const RunConfig& cfg) {
  std::ostringstream os;
  os << cfg.workload << "-" << static_cast<int>(cfg.policy) << "-" << std::hex
     << cfg.fingerprint();
  return os.str();
}

/// Fig. 3 right bars: classify every dependency's cache blocks by its
/// lifetime usage in the RTCacheDirectory. A block is NotReused when its
/// dependency actually bypassed the LLC at some point; otherwise it is
/// classified by direction. Overlapping dependencies (halo sub-regions) are
/// deduplicated by interval merging so coverage never exceeds the footprint.
void add_fig3_tdnuca(const system::TiledSystem& sys_const,
                     std::map<std::string, double>& m) {
  auto& sys = const_cast<system::TiledSystem&>(sys_const);
  const auto* hooks = sys.tdnuca_hooks();
  if (hooks == nullptr) return;
  // Category per byte range; later (smaller, more specific) ranges win by
  // being merged after subtraction of already-counted bytes.
  struct Piece {
    AddrRange r;
    int cat;  // 0=notreused 1=both 2=in 3=out
  };
  std::vector<Piece> pieces;
  for (const auto& [dep, e] : hooks->directory().all()) {
    (void)dep;
    const Addr begin = align_up(e.vrange.begin, 64);
    const Addr end = align_down(e.vrange.end, 64);
    if (end <= begin) continue;
    int cat;
    if (e.ever_bypassed) cat = 0;
    else if (e.ever_in && e.ever_out) cat = 1;
    else if (e.ever_in) cat = 2;
    else cat = 3;
    pieces.push_back({AddrRange{begin, end}, cat});
  }
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    if (a.r.size() != b.r.size()) return a.r.size() < b.r.size();
    return a.r.begin < b.r.begin;
  });
  // Count lines smallest-range first; a line already claimed by a more
  // specific dependency is not recounted for an enclosing one.
  std::unordered_set<Addr> claimed;
  double blocks[4] = {0, 0, 0, 0};
  for (const Piece& p : pieces) {
    for (Addr la = p.r.begin; la < p.r.end; la += 64) {
      if (claimed.insert(la).second) blocks[p.cat] += 1.0;
    }
  }
  m["fig3.td.notreused_blocks"] = blocks[0];
  m["fig3.td.both_blocks"] = blocks[1];
  m["fig3.td.in_blocks"] = blocks[2];
  m["fig3.td.out_blocks"] = blocks[3];
  m["fig3.td.dep_blocks"] = blocks[0] + blocks[1] + blocks[2] + blocks[3];
}

void add_fig3_rnuca(system::TiledSystem& sys,
                    std::map<std::string, double>& m) {
  const auto* pol = sys.rnuca_policy();
  if (pol == nullptr) return;
  const auto c = pol->census();
  const double blocks_per_page =
      static_cast<double>(sys.page_table().page_size() / 64);
  m["fig3.rnuca.private_blocks"] =
      static_cast<double>(c.private_pages) * blocks_per_page;
  m["fig3.rnuca.shared_ro_blocks"] =
      static_cast<double>(c.shared_ro_pages) * blocks_per_page;
  m["fig3.rnuca.shared_blocks"] =
      static_cast<double>(c.shared_pages) * blocks_per_page;
  m["fig3.rnuca.total_blocks"] =
      static_cast<double>(c.total()) * blocks_per_page;
}

}  // namespace

obs::RecorderConfig ObsOptions::recorder_config() const {
  obs::RecorderConfig rc;
  rc.trace = !trace_path.empty();
  rc.epochs = !epochs_csv_path.empty() || !epochs_json_path.empty();
  rc.heatmaps = !heatmaps_path.empty() || !heatmaps_json_path.empty();
  rc.trace_coherence = trace_coherence;
  rc.attribution = !latency_report_path.empty();
  rc.epoch_cycles = epoch_cycles;
  return rc;
}

std::uint64_t RunConfig::fingerprint() const {
  std::ostringstream os;
  // "v8": derived-metric schema version; bump to invalidate cached results
  // when the metric extraction changes (v3 added the per-bank llc.bankN.*
  // keys; v4 added the fault.* keys and folded the fault plan into the
  // system fingerprint; v5 added multiprogram mixes — the appK.* /
  // multi.* keys and the colocation options below; v6 added
  // cache.forced_unsafe_evictions; v7 added open-arrival serving — the
  // serve.* keys and the serving options below; v8 added tdn::vm — the
  // mem.* / vm.* / tdnuca.translate_* keys and the vm segment of the
  // system fingerprint).
  os << "v8/" << workload << '/' << static_cast<int>(policy) << '/' << params.scale
     << '/' << params.compute << '/' << params.seed << '/'
     << multi.canonical() << '/' << sys.fingerprint() << '/'
     << (serve.enabled() ? serve.canonical() : std::string("-"));
  // Checkpoint cadence is simulated behavior (the drain detour is real
  // simulated work), so it keys results; appended only when enabled so every
  // pre-existing fingerprint is unchanged.
  if (serve.enabled() && ckpt.enabled()) os << '/' << ckpt.canonical();
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

std::string RunConfig::describe() const {
  std::ostringstream os;
  os << workload << '/' << system::to_string(policy)
     << " scale=" << params.scale << " compute=" << params.compute
     << " seed=" << params.seed;
  // Plain string test — describe() also labels failed runs, so it must not
  // itself throw on a bad mix spelling.
  if (workload.find('+') != std::string::npos)
    os << " multi=" << multi.canonical();
  if (serve.enabled()) os << " serve=" << serve.canonical();
  if (serve.enabled() && ckpt.enabled()) os << " ckpt=" << ckpt.canonical();
  if (!sys.fault.plan.empty()) os << " faults=\"" << sys.fault.plan << '"';
  return os.str();
}

double RunResult::get(const std::string& key) const {
  auto it = metrics.find(key);
  TDN_REQUIRE(it != metrics.end(), "missing metric: " + key);
  return it->second;
}

RunResult run_experiment(const RunConfig& cfg, bool use_cache,
                         ObsArtifacts* artifacts) {
  RunResult result;
  result.workload = cfg.workload;
  system::SystemConfig sys_cfg = cfg.sys;
  sys_cfg.policy = cfg.policy;
  result.policy = system::to_string(cfg.policy);

  // A cached run never re-simulates and so cannot produce observability
  // artifacts: recording forces a fresh simulation (results are identical —
  // the recorder only observes).
  const bool obs_active = cfg.obs.any();
  if (obs_active) use_cache = false;
  // Checkpointing exists to survive the simulation being killed; serving a
  // memoized result would skip the simulation and publish nothing.
  const bool ckpt_active = cfg.serve.enabled() && cfg.ckpt.enabled();
  if (ckpt_active) use_cache = false;

  const std::string key = cache_key(cfg);
  if (use_cache) {
    if (auto cached = ResultsCache::load(key)) {
      result.metrics = std::move(*cached);
      result.from_cache = true;
      return result;
    }
  }

  obs::Recorder rec(cfg.obs.recorder_config());

  // Runs after metric collection (the report embeds sim.cycles/sim.events).
  // @p tasks is the runtime's executed task table for critical-path
  // analysis, or null for multiprogram mixes (each app has its own DAG; the
  // shared-machine report carries attribution only).
  auto emit_artifacts = [&](const std::vector<runtime::Task>* tasks) {
    if (!obs_active) return;
    ObsArtifacts arts;
    arts.trace_events = rec.trace_events();
    arts.epoch_rows = rec.epoch_rows();
    arts.epoch_series = rec.epoch_series();
    arts.heatmaps = rec.heatmap_count();
    auto emit = [&](const std::string& path, const std::string& content) {
      if (path.empty()) return;
      if (write_file(path, content)) arts.files_written.push_back(path);
    };
    emit(cfg.obs.trace_path, rec.trace_json());
    emit(cfg.obs.epochs_csv_path, rec.epochs_csv());
    emit(cfg.obs.epochs_json_path, rec.epochs_json());
    emit(cfg.obs.heatmaps_path, rec.heatmaps_text());
    emit(cfg.obs.heatmaps_json_path, rec.heatmaps_json());
    if (!cfg.obs.latency_report_path.empty() &&
        rec.attribution() != nullptr) {
      const obs::LatencyAttribution& attr = *rec.attribution();
      arts.attributed_accesses = static_cast<std::size_t>(
          attr.total().count() + attr.merged().count());
      std::ostringstream os;
      os << "{\"schema\":\"tdn-obs-report-v1\",\"workload\":\""
         << json_escape(cfg.workload) << "\",\"policy\":\""
         << json_escape(result.policy) << "\",\"sim\":{\"cycles\":"
         << static_cast<std::uint64_t>(result.metrics.at("sim.cycles"))
         << ",\"events\":"
         << static_cast<std::uint64_t>(result.metrics.at("sim.events"))
         << "}," << attr.report_json() << ",\"critical_path\":";
      if (tasks != nullptr) {
        os << obs::analyze_critical_path(*tasks).report_json();
      } else {
        os << "null";
      }
      os << "}\n";
      emit(cfg.obs.latency_report_path, os.str());
    }
    if (artifacts != nullptr) *artifacts = std::move(arts);
  };

  // Serving runs treat the workload string as the tenant list and assemble
  // an open-arrival ServeSystem; multiprogram mixes assemble a
  // shared-substrate machine with per-app runtimes; single names build the
  // classic one-app TiledSystem. Cache lookup/store and obs artifact
  // plumbing are shared by all three paths.
  const multi::MixSpec mix = multi::MixSpec::parse(cfg.workload);
  if (cfg.serve.enabled()) {
    serve::ServeSystem ssys(sys_cfg, mix, cfg.serve,
                            obs_active ? &rec : nullptr);
    ssys.build(cfg.params);
    if (ckpt_active) {
      ssys.set_checkpoint(cfg.ckpt, cfg.fingerprint());
      if (cfg.ckpt.resume && !cfg.ckpt.dir.empty()) {
        // Resume from the newest *valid* snapshot; torn or corrupt files are
        // skipped by the loader, and with none usable the run starts fresh.
        if (auto snap = ckpt::load_latest(cfg.ckpt.dir, cfg.fingerprint()))
          ssys.resume_from(*snap);
      }
    }
    ssys.run();
    result.metrics = ssys.collect_stats().all();
    emit_artifacts(nullptr);
  } else if (mix.is_multi()) {
    multi::MultiProgramSystem msys(sys_cfg, mix, cfg.multi,
                                   obs_active ? &rec : nullptr);
    msys.build(cfg.params);
    msys.run();
    result.metrics = msys.collect_stats().all();
    emit_artifacts(nullptr);
  } else {
    system::TiledSystem sys(sys_cfg, obs_active ? &rec : nullptr);
    auto wl = workloads::make_workload(cfg.workload, cfg.params);
    wl->build(sys);
    sys.run();

    result.metrics = sys.collect_stats().all();
    emit_artifacts(&sys.runtime().tasks());
    const auto& ws = wl->stats();
    result.metrics["workload.input_bytes"] =
        static_cast<double>(ws.input_bytes);
    result.metrics["workload.num_tasks"] = static_cast<double>(ws.num_tasks);
    result.metrics["workload.avg_task_bytes"] =
        static_cast<double>(ws.avg_task_bytes);
    result.metrics["workload.num_phases"] =
        static_cast<double>(ws.num_phases);
    result.metrics["workload.total_blocks"] =
        static_cast<double>(ws.input_bytes / 64);
    add_fig3_tdnuca(sys, result.metrics);
    add_fig3_rnuca(sys, result.metrics);
  }

  if (use_cache) ResultsCache::store(key, result.metrics);
  return result;
}

std::vector<RunResult> run_suite(
    const std::vector<system::PolicyKind>& policies,
    const workloads::WorkloadParams& params, bool use_cache, unsigned jobs) {
  std::vector<RunConfig> cfgs;
  for (const std::string& wl : workloads::paper_workload_names()) {
    for (const system::PolicyKind p : policies) {
      RunConfig cfg;
      cfg.workload = wl;
      cfg.policy = p;
      cfg.params = params;
      cfgs.push_back(std::move(cfg));
    }
  }
  SweepOptions opts;
  opts.jobs = jobs;
  opts.use_cache = use_cache;
  return SweepRunner(opts).run(cfgs);
}

const RunResult& find_result(const std::vector<RunResult>& results,
                             const std::string& workload,
                             system::PolicyKind policy) {
  const std::string pol = system::to_string(policy);
  for (const RunResult& r : results) {
    if (r.workload == workload && r.policy == pol) return r;
  }
  TDN_REQUIRE(false, "no result for " + workload + "/" + pol);
  static RunResult dummy;
  return dummy;
}

double geometric_mean(const std::vector<double>& xs) {
  TDN_REQUIRE(!xs.empty(), "geometric mean of empty set");
  double log_sum = 0.0;
  for (double x : xs) {
    TDN_REQUIRE(x > 0.0, "geometric mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace tdn::harness
