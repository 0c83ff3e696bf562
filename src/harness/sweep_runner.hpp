// Parallel sweep execution. Every experiment is an independent,
// deterministic, single-threaded event loop over its own TiledSystem, so a
// sweep of RunConfigs is embarrassingly parallel: SweepRunner executes one
// on a fixed-size thread pool while guaranteeing that the results are
// bit-identical to a serial run:
//
//  * each run owns its system, workload and stats::Registry — no state is
//    shared between workers except the results cache, which is safe under
//    concurrent writers (temp file + atomic rename, results_cache.hpp);
//  * PRNG seeds derive from the RunConfig alone (params.seed and per-entity
//    fnv1a64 hashes), never from pool scheduling order, thread ids or time;
//  * results come back in input order regardless of completion order;
//  * configs with equal fingerprints are simulated once per process
//    (in-process dedup) and the result is replicated to every position, so
//    two workers never race to simulate the same key.
//
// Operator's manual: docs/harness.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace tdn::harness {

struct SweepOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency(); 1 = run
  /// everything on the calling thread (no pool).
  unsigned jobs = 0;
  bool use_cache = true;
  /// Emit progress to stderr: a live completed/total + cache-hits + ETA
  /// line on a TTY, a single summary line otherwise.
  bool progress = false;
};

/// Aggregate accounting for one SweepRunner::run call.
struct SweepStats {
  std::size_t runs = 0;        ///< configs submitted
  std::size_t simulated = 0;   ///< fresh simulations executed
  std::size_t cache_hits = 0;  ///< served from the on-disk results cache
  std::size_t deduped = 0;     ///< duplicate-fingerprint configs coalesced
  unsigned jobs = 0;           ///< pool size actually used
  double wall_ms = 0.0;        ///< whole-sweep wall clock
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Execute every config (possibly concurrently) and return results in
  /// input order. If any run throws, the first failure in input order is
  /// rethrown after all workers have stopped.
  std::vector<RunResult> run(const std::vector<RunConfig>& configs);

  /// Accounting for the most recent run() call. Each run's wall clock is
  /// its RunResult::wall_ms, kept out of RunResult::metrics, which stay
  /// bit-identical between serial and parallel sweeps.
  const SweepStats& stats() const noexcept { return stats_; }

 private:
  SweepOptions opts_;
  SweepStats stats_;
};

/// Resolve a jobs request (0 = auto) against the host, never returning 0.
unsigned resolve_jobs(unsigned requested);

/// Render a duration (milliseconds) as a compact ETA ("42s", "3m07s",
/// "2h15m"). Total-function over the whole double range: NaN, infinities
/// and negative values (a first run completing in ~0 elapsed ms used to
/// push Inf/garbage into the progress line) render as "--", and durations
/// beyond 99 hours clamp to ">99h" instead of overflowing the cast.
std::string format_eta(double ms);

}  // namespace tdn::harness
