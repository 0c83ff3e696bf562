// Tests of the tdn::obs v2 latency layer: LatencyHistogram bucketing and
// percentile determinism, the attribution sum invariant (components
// telescope to the measured end-to-end miss latency by construction),
// and critical-path bounds on hand-built DAGs and full-system runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/critical_path.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/recorder.hpp"
#include "system/tiled_system.hpp"

using namespace tdn;
using namespace tdn::obs;

namespace {

system::SystemConfig cfg_for(system::PolicyKind kind) {
  system::SystemConfig cfg;
  cfg.policy = kind;
  return cfg;
}

void tiny_program(system::TiledSystem& sys, int tasks = 8) {
  auto& rt = sys.runtime();
  for (int i = 0; i < tasks; ++i) {
    const AddrRange r = sys.vspace().allocate(16 * kKiB, 64, "r");
    const DepId d = rt.region(r, "r");
    core::TaskProgram p;
    core::AccessPhase ph;
    ph.range = r;
    ph.kind = (i % 2 != 0) ? AccessKind::Write : AccessKind::Read;
    p.add_phase(ph);
    rt.create_task(std::string("t").append(std::to_string(i)),
                   {{d, i % 2 != 0 ? DepUse::Out : DepUse::In}},
                   std::move(p));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, BucketFloorRoundTripAndErrorBound) {
  for (const Cycle v : {Cycle{0}, Cycle{1}, Cycle{15}, Cycle{16}, Cycle{17},
                        Cycle{31}, Cycle{32}, Cycle{100}, Cycle{1000},
                        Cycle{12345}, Cycle{1} << 20, (Cycle{1} << 30) - 1}) {
    const std::size_t idx = LatencyHistogram::index(v);
    const Cycle floor = LatencyHistogram::bucket_floor(idx);
    ASSERT_LE(floor, v) << v;
    if (v < 16) {
      EXPECT_EQ(floor, v);  // unit buckets are exact
    } else {
      // 16 linear sub-buckets per octave: relative error bounded by 1/16.
      EXPECT_LE(v - floor, v / 16) << v;
    }
    // floor is the smallest member of its bucket.
    EXPECT_EQ(LatencyHistogram::index(floor), idx) << v;
  }
}

TEST(LatencyHistogram, ExactPercentilesOnSmallValues) {
  LatencyHistogram h;
  for (Cycle v = 1; v <= 16; ++v) h.add(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 136u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 16u);
  // rank = ceil(q * 16): p50 -> 8th smallest = 8, p90 -> 15th = 15,
  // p999 -> 16th = 16 (exact: unit buckets below 16, and 16 is a floor).
  EXPECT_EQ(h.percentile(0.50), 8u);
  EXPECT_EQ(h.percentile(0.90), 15u);
  EXPECT_EQ(h.percentile(0.999), 16u);
  EXPECT_EQ(h.percentile(1.0), 16u);
}

TEST(LatencyHistogram, EmptyAndSingleSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.add(42);
  EXPECT_EQ(h.percentile(0.001), LatencyHistogram::bucket_floor(
                                     LatencyHistogram::index(42)));
  EXPECT_EQ(h.percentile(0.999), h.percentile(0.001));
}

TEST(LatencyHistogram, DeterministicAcrossInsertionOrder) {
  std::vector<Cycle> values;
  std::mt19937_64 rng(123);
  for (int i = 0; i < 10'000; ++i)
    values.push_back(rng() % (Cycle{1} << 22));
  LatencyHistogram a, b;
  for (const Cycle v : values) a.add(v);
  std::shuffle(values.begin(), values.end(), rng);
  for (const Cycle v : values) b.add(v);
  EXPECT_EQ(a.summary_json(), b.summary_json());
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(a.percentile(q), b.percentile(q)) << q;
}

TEST(LatencyHistogram, MergeEqualsUnion) {
  LatencyHistogram a, b, all;
  for (Cycle v = 0; v < 5'000; v += 7) {
    ((v % 2 != 0) ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.summary_json(), all.summary_json());
  LatencyHistogram empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.summary_json(), all.summary_json());
}

TEST(LatencyHistogram, OverflowClampsToMaxBucket) {
  LatencyHistogram h;
  h.add(LatencyHistogram::kMaxValue * 4);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(1.0),
            LatencyHistogram::bucket_floor(
                LatencyHistogram::index(LatencyHistogram::kMaxValue)));
}

// ---------------------------------------------------------------------------
// Latency attribution: the sum invariant
// ---------------------------------------------------------------------------

TEST(Attribution, ComponentsSumToEndToEndLatency) {
  for (const auto kind :
       {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
    RecorderConfig rc;
    rc.attribution = true;
    Recorder rec(rc);
    system::TiledSystem sys(cfg_for(kind), &rec);
    tiny_program(sys, 16);
    sys.run(/*cycle_limit=*/50'000'000);
    ASSERT_TRUE(sys.completed());

    const LatencyAttribution& attr = *rec.attribution();
    // Every L1 miss the coherence layer measured was attributed, either as
    // a primary transaction or as a merged (MSHR-coalesced) one...
    const auto& ms = sys.caches().stats().miss_latency;
    EXPECT_EQ(attr.total().count() + attr.merged().count(), ms.samples())
        << system::to_string(kind);
    // ...and the attributed cycles are exactly the measured cycles.
    EXPECT_EQ(attr.total().sum() + attr.merged().sum(), ms.total())
        << system::to_string(kind);

    // The six components telescope to the end-to-end latency by
    // construction: equal counts, equal sums.
    Cycle component_sum = 0;
    for (unsigned c = 0; c < LatencyAttribution::kComponents; ++c) {
      const auto& h = attr.component(static_cast<LatencyComponent>(c));
      EXPECT_EQ(h.count(), attr.total().count())
          << to_string(static_cast<LatencyComponent>(c));
      component_sum += h.sum();
    }
    EXPECT_EQ(component_sum, attr.total().sum()) << system::to_string(kind);

    // Distance bucketing partitions the primary misses.
    std::uint64_t by_dist = 0;
    for (unsigned d = 0; d <= LatencyAttribution::kMaxDistance; ++d)
      by_dist += attr.by_distance(d).count();
    EXPECT_EQ(by_dist, attr.total().count());

    // Nothing left in flight once the run drained.
    EXPECT_EQ(attr.inflight(), 0u);
    EXPECT_GT(attr.total().count(), 0u);
  }
}

TEST(Attribution, DisabledRecorderHasNoAttribution) {
  Recorder rec;  // attribution off
  EXPECT_FALSE(rec.attribution_on());
  EXPECT_EQ(rec.attribution(), nullptr);
  RecorderConfig rc;
  rc.attribution = true;
  Recorder on(rc);
  EXPECT_TRUE(on.attribution_on());
  ASSERT_NE(on.attribution(), nullptr);
  EXPECT_TRUE(on.config().any());
}

TEST(Attribution, ReportJsonCarriesSumCheck) {
  RecorderConfig rc;
  rc.attribution = true;
  Recorder rec(rc);
  system::TiledSystem sys(cfg_for(system::PolicyKind::TdNuca), &rec);
  tiny_program(sys, 8);
  sys.run(/*cycle_limit=*/50'000'000);
  const std::string json = rec.attribution()->report_json();
  EXPECT_NE(json.find("\"sum_check\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"access_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"by_distance\""), std::string::npos);
  EXPECT_NE(json.find("\"mshr_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"unattributed_inflight\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Critical-path analysis
// ---------------------------------------------------------------------------

namespace {

runtime::Task make_task(TaskId id, std::vector<TaskId> preds, Cycle started,
                        Cycle finished, Cycle exec_started, Cycle exec_finished,
                        Cycle compute) {
  runtime::Task t;
  t.id = id;
  t.state = runtime::TaskState::Done;
  t.predecessors = std::move(preds);
  t.started_at = started;
  t.finished_at = finished;
  t.exec_started_at = exec_started;
  t.exec_finished_at = exec_finished;
  t.compute_cycles = compute;
  return t;
}

}  // namespace

TEST(CriticalPath, HandBuiltDagDecomposesExactly) {
  std::vector<runtime::Task> tasks;
  tasks.push_back(make_task(0, {}, 10, 100, 20, 90, 50));
  tasks.push_back(make_task(1, {0}, 120, 300, 130, 290, 100));
  tasks.push_back(make_task(2, {0}, 110, 200, 115, 195, 30));
  const CriticalPathReport r = analyze_critical_path(tasks);

  EXPECT_EQ(r.tasks_total, 3u);
  EXPECT_EQ(r.tasks_done, 3u);
  EXPECT_EQ(r.makespan, 300u);
  EXPECT_EQ(r.longest_task, 180u);  // task 1: 120 -> 300

  // Realized walk: sink is task 1, its latest predecessor task 0.
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path.front(), 0u);  // reported source -> sink
  EXPECT_EQ(r.path.back(), 1u);
  EXPECT_EQ(r.realized_cycles, r.makespan);
  EXPECT_EQ(r.dep_wait, 10u + 20u);             // chain start + 100 -> 120
  EXPECT_EQ(r.runtime_overhead, 20u + 20u);     // dispatch + end hooks
  EXPECT_EQ(r.compute, 50u + 100u);
  EXPECT_EQ(r.memory_stall, (70u - 50u) + (160u - 100u));
  EXPECT_EQ(r.dep_wait + r.runtime_overhead + r.compute + r.memory_stall,
            r.makespan);

  // Inherent path: durations 90 + 180 through 0 -> 1.
  EXPECT_EQ(r.inherent_cycles, 270u);
  EXPECT_LE(r.inherent_cycles, r.makespan);
  EXPECT_GE(r.inherent_cycles, r.longest_task);
}

TEST(CriticalPath, IncompleteTasksAreExcluded) {
  std::vector<runtime::Task> tasks;
  tasks.push_back(make_task(0, {}, 0, 100, 10, 90, 40));
  tasks.push_back(make_task(1, {0}, 100, 900, 0, 0, 0));
  tasks[1].state = runtime::TaskState::Running;  // never finished
  const CriticalPathReport r = analyze_critical_path(tasks);
  EXPECT_EQ(r.tasks_done, 1u);
  EXPECT_EQ(r.makespan, 100u);
  EXPECT_EQ(r.realized_cycles, 100u);

  const CriticalPathReport empty = analyze_critical_path({});
  EXPECT_EQ(empty.tasks_done, 0u);
  EXPECT_EQ(empty.makespan, 0u);
  EXPECT_TRUE(empty.path.empty());
}

TEST(CriticalPath, FullRunBoundsAndExactDecomposition) {
  for (const auto kind :
       {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
    system::TiledSystem sys(cfg_for(kind));
    tiny_program(sys, 16);
    const Cycle makespan = sys.run(/*cycle_limit=*/50'000'000);
    ASSERT_TRUE(sys.completed());

    const CriticalPathReport r =
        analyze_critical_path(sys.runtime().tasks());
    EXPECT_EQ(r.tasks_done, 16u);
    EXPECT_EQ(r.makespan, sys.runtime().makespan());
    EXPECT_LE(r.makespan, makespan);
    EXPECT_EQ(r.realized_cycles, r.makespan);
    EXPECT_EQ(r.dep_wait + r.runtime_overhead + r.compute + r.memory_stall,
              r.makespan)
        << system::to_string(kind);
    EXPECT_GT(r.compute, 0u);
    EXPECT_GE(r.inherent_cycles, r.longest_task);
    EXPECT_LE(r.inherent_cycles, r.makespan);
    EXPECT_FALSE(r.path.empty());
    EXPECT_NE(r.report_json().find("\"realized\""), std::string::npos);
  }
}
