// tdn::obs — time-resolved observability for the whole simulation stack.
//
// One Recorder instance coordinates three sinks, all disabled by default and
// all zero-cost on the simulator's hot paths when disabled (call sites guard
// on a null pointer / an inline flag check and build no strings):
//
//  1. Trace sink  — Chrome trace_event JSON (loadable in Perfetto or
//     chrome://tracing). Tracks: one per simulated core (task spans, TD-NUCA
//     ISA instruction spans), plus auxiliary tracks for the runtime (phase
//     openings), the flush engines, and coherence/bypass transactions.
//     Timestamps are simulated cycles written as trace microseconds.
//  2. Epoch sampler — snapshots a set of registered time-series probes every
//     `epoch_cycles` simulated cycles (per-bank LLC hit ratio and occupancy,
//     per-link NoC utilization, per-core RRT occupancy, ready-queue depth,
//     DRAM queue depth, ...) into CSV or JSON. Sampling rides *observer*
//     events on the main event queue (sim::EventQueue::schedule_observer_at)
//     so the simulation's own event accounting is untouched.
//  3. Heatmap dump — named W x H matrices (bank access counts, per-direction
//     link traffic) filled by provider closures at output time, formatted as
//     aligned text or JSON for the harness.
//
// Determinism contract: the Recorder observes and never mutates simulation
// state, so every stats::Registry metric is bit-identical whether recording
// is enabled or not (enforced by tests/test_obs.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"
#include "common/write_file.hpp"
#include "obs/attribution.hpp"
#include "sim/inline_function.hpp"

namespace tdn::sim {
class EventQueue;
}

namespace tdn::obs {

struct RecorderConfig {
  bool trace = false;     ///< Chrome trace_event sink
  bool epochs = false;    ///< epoch time-series sampler
  bool heatmaps = false;  ///< end-of-run heatmap matrices
  /// Also record one instant event per coherence transaction (LLC request /
  /// invalidation / bypass). High volume: off by default even when tracing.
  bool trace_coherence = false;
  /// Per-access latency attribution + histograms (obs::LatencyAttribution).
  bool attribution = false;
  Cycle epoch_cycles = 10'000;

  bool any() const noexcept {
    return trace || epochs || heatmaps || attribution;
  }
};

/// One Chrome trace_event record. Only the two phases the simulator emits:
/// 'X' (complete span with duration) and 'i' (instant).
struct TraceEvent {
  Cycle ts = 0;
  Cycle dur = 0;
  std::uint32_t tid = 0;
  char ph = 'X';
  std::string name;
  std::string cat;
  std::string args_json;  ///< pre-rendered `"k":v` pairs, no braces; may be empty
};

class Recorder {
 public:
  explicit Recorder(RecorderConfig cfg = {});

  const RecorderConfig& config() const noexcept { return cfg_; }
  bool trace_on() const noexcept { return cfg_.trace; }
  bool coherence_on() const noexcept { return cfg_.trace && cfg_.trace_coherence; }
  bool attribution_on() const noexcept { return attr_ != nullptr; }
  /// Null unless the attribution sink is enabled; the coherence layer
  /// null-tests this once at construction and stamps through the pointer.
  LatencyAttribution* attribution() noexcept { return attr_.get(); }
  const LatencyAttribution* attribution() const noexcept { return attr_.get(); }

  // --- auxiliary trace tracks (cores use their CoreId as tid) -----------
  static constexpr std::uint32_t kRuntimeTrack = 1000;
  static constexpr std::uint32_t kFlushTrack = 1001;
  static constexpr std::uint32_t kCoherenceTrack = 1002;
  static constexpr std::uint32_t kFaultTrack = 1003;
  /// Serving (tdn::serve): one track per worker slot — slot s emits its
  /// request-lifecycle spans on tid kServeTrackBase + s.
  static constexpr std::uint32_t kServeTrackBase = 1100;

  // --- wiring (done by system::Machine and the front-ends) --------------
  /// Probe callables live inline (no heap), same substrate rule as
  /// sim::Action; 48 bytes covers every registered probe (a `this` pointer
  /// plus a few indices / running counters).
  static constexpr std::size_t kProbeCapacity = 48;
  using SeriesProbe = sim::InlineFunction<double(), kProbeCapacity>;
  using HeatmapFill =
      sim::InlineFunction<std::vector<double>(), kProbeCapacity>;

  /// The clock `instant` stamps events with.
  void attach_clock(const sim::EventQueue* eq) noexcept { eq_ = eq; }
  void set_track_name(std::uint32_t tid, std::string name);
  /// Register an epoch time-series probe; called once per epoch in
  /// registration order. Probes must not mutate simulation state.
  void add_series(std::string name, SeriesProbe probe);
  /// Register a heatmap provider; @p fill returns w*h row-major values and
  /// runs at output time.
  void add_heatmap(std::string name, unsigned w, unsigned h, HeatmapFill fill);
  /// Start epoch sampling on @p eq (no-op unless the epoch sink is enabled).
  /// Sampling ticks at epoch_cycles intervals for as long as the simulation
  /// has real (non-observer) events pending, plus one final tail sample.
  /// Idempotent while a tick is live: re-arming after run_until() dropped
  /// the pending tick schedules a fresh one, but re-arming with the tick
  /// still queued (resumed runs) does not start a duplicate tick chain.
  void arm(sim::EventQueue& eq);

  // --- trace sink (instrumentation call sites) --------------------------
  Cycle now() const noexcept;
  void span(std::uint32_t tid, const char* cat, std::string name, Cycle start,
            Cycle dur, std::string args = {});
  void instant(std::uint32_t tid, const char* cat, std::string name,
               std::string args = {});

  // --- outputs ----------------------------------------------------------
  std::size_t trace_events() const noexcept { return events_.size(); }
  /// Full trace_event JSON document, events sorted by start timestamp.
  std::string trace_json() const;

  std::size_t epoch_rows() const noexcept { return rows_.size(); }
  std::size_t epoch_series() const noexcept { return series_.size(); }
  std::string epochs_csv() const;
  std::string epochs_json() const;

  std::size_t heatmap_count() const noexcept { return heatmaps_.size(); }
  // Non-const: heatmap providers are inline callables that may carry
  // mutable capture state, and they run at output time.
  std::string heatmaps_text();
  std::string heatmaps_json();

 private:
  struct Series {
    std::string name;
    SeriesProbe probe;
  };
  struct Heatmap {
    std::string name;
    unsigned w = 0;
    unsigned h = 0;
    HeatmapFill fill;
  };

  void sample(sim::EventQueue& eq, std::uint64_t gen);
  void schedule_tick(sim::EventQueue& eq);
  /// Whether the tick scheduled by the last schedule_tick() is still queued
  /// on @p eq (not yet fired, not dropped by a cycle-limited run).
  bool tick_live(const sim::EventQueue& eq) const noexcept;

  RecorderConfig cfg_;
  const sim::EventQueue* eq_ = nullptr;

  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> track_names_;

  std::vector<Series> series_;
  std::vector<std::pair<Cycle, std::vector<double>>> rows_;

  std::vector<Heatmap> heatmaps_;
  std::unique_ptr<LatencyAttribution> attr_;

  // Sampler-tick liveness (see arm()): a tick is live while one is queued
  // for next_tick_ and the queue has not dropped an observer since it was
  // scheduled. The generation counter makes superseded ticks inert — a
  // queued tick from before a re-arm fires as a no-op instead of starting a
  // second tick chain.
  bool tick_pending_ = false;
  Cycle next_tick_ = 0;
  std::uint64_t drops_at_schedule_ = 0;
  std::uint64_t tick_gen_ = 0;
};

/// Artifacts are published through the one atomic writer. The name stays
/// in this namespace because perfbench/tdn_perfbench.cpp calls
/// obs::write_file.
using tdn::write_file;

/// Epoch-probe delta of a cumulative counter. No counter is ever reset.
inline std::uint64_t since(std::uint64_t& prev, std::uint64_t cur) {
  TDN_ASSERT(cur >= prev);
  const std::uint64_t d = cur - prev;
  prev = cur;
  return d;
}

/// Heatmap fill with one value per mesh tile: get(t) for t in [0, n).
template <class F>
auto per_tile(unsigned n, F get) {
  return [n, get] {
    std::vector<double> v(n);
    for (unsigned t = 0; t < n; ++t) v[t] = static_cast<double>(get(t));
    return v;
  };
}

/// Epoch series of the hit ratio over each epoch's new hits and misses;
/// @p read returns the cumulative (hits, misses).
template <class F>
auto epoch_hit_ratio(F read) {
  return [read, ph = std::uint64_t{0}, pm = std::uint64_t{0}]() mutable {
    const auto [hits, misses] = read();
    const std::uint64_t dh = since(ph, hits);
    const std::uint64_t dm = since(pm, misses);
    return (dh + dm) > 0
               ? static_cast<double>(dh) / static_cast<double>(dh + dm)
               : 0.0;
  };
}

}  // namespace tdn::obs
