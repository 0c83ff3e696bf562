// Unit tests: region-map dependence tracking, TDG construction, dynamic
// dispatch, phases (taskwait) and schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "coherence/coherent_system.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "runtime/region_map.hpp"
#include "runtime/runtime_system.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;
using namespace tdn::runtime;

TEST(RegionMap, RawEdge) {
  RegionMap rm;
  EXPECT_TRUE(rm.access({0, 100}, 0, true).empty());   // writer
  const auto preds = rm.access({0, 100}, 1, false);    // reader
  EXPECT_EQ(preds, (std::vector<TaskId>{0}));
}

TEST(RegionMap, WarAndWawEdges) {
  RegionMap rm;
  rm.access({0, 100}, 0, true);
  rm.access({0, 100}, 1, false);
  rm.access({0, 100}, 2, false);
  const auto preds = rm.access({0, 100}, 3, true);  // WAR on 1,2; WAW on 0
  EXPECT_EQ(preds.size(), 3u);
  EXPECT_NE(std::find(preds.begin(), preds.end(), 0), preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), 1), preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), 2), preds.end());
}

TEST(RegionMap, ReadersDoNotDependOnReaders) {
  RegionMap rm;
  rm.access({0, 64}, 0, false);
  EXPECT_TRUE(rm.access({0, 64}, 1, false).empty());
}

TEST(RegionMap, PartialOverlapSplits) {
  RegionMap rm;
  rm.access({0, 100}, 0, true);
  rm.access({100, 200}, 1, true);
  const auto preds = rm.access({50, 150}, 2, false);  // straddles both
  EXPECT_EQ(preds.size(), 2u);
  EXPECT_GT(rm.interval_count(), 2u);
}

TEST(RegionMap, DisjointRangesIndependent) {
  RegionMap rm;
  rm.access({0, 64}, 0, true);
  EXPECT_TRUE(rm.access({64, 128}, 1, true).empty());
}

TEST(RegionMap, NoSelfEdges) {
  RegionMap rm;
  rm.access({0, 64}, 5, false);
  const auto preds = rm.access({0, 64}, 5, true);  // same task inout
  EXPECT_TRUE(preds.empty());
}

namespace {
struct RtRig {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  coherence::CoherentSystem caches{eq, net, mesh, mcs, policy, {}, 4};
  mem::PageTable pt;
  std::vector<std::unique_ptr<core::SimCore>> cores;
  FifoScheduler sched;
  RuntimeHooks hooks;
  std::unique_ptr<RuntimeSystem> rt;

  RtRig() {
    std::vector<core::SimCore*> ptrs;
    for (CoreId i = 0; i < 4; ++i) {
      cores.push_back(std::make_unique<core::SimCore>(i, eq, caches, pt));
      ptrs.push_back(cores.back().get());
    }
    rt = std::make_unique<RuntimeSystem>(eq, ptrs, sched, hooks);
  }

  core::TaskProgram tiny_prog(AddrRange r, AccessKind k = AccessKind::Read) {
    core::TaskProgram p;
    core::AccessPhase ph;
    ph.range = r;
    ph.kind = k;
    p.add_phase(ph);
    return p;
  }
};
}  // namespace

TEST(RuntimeSystem, RegionDedupesExactRanges) {
  RtRig rig;
  const DepId a = rig.rt->region({0x1000, 0x2000}, "a");
  const DepId b = rig.rt->region({0x1000, 0x2000}, "again");
  const DepId c = rig.rt->region({0x1000, 0x2001}, "different");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(rig.rt->num_deps(), 2u);
}

TEST(RuntimeSystem, BuildsRawEdges) {
  RtRig rig;
  const AddrRange r{0x10000000, 0x10001000};
  const DepId d = rig.rt->region(r);
  const TaskId w =
      rig.rt->create_task("w", {{d, DepUse::Out}},
                          rig.tiny_prog(r, AccessKind::Write));
  const TaskId rd =
      rig.rt->create_task("r", {{d, DepUse::In}}, rig.tiny_prog(r));
  const Task& reader = rig.rt->task(rd);
  EXPECT_EQ(reader.predecessors, (std::vector<TaskId>{w}));
  EXPECT_EQ(rig.rt->task(w).successors, (std::vector<TaskId>{rd}));
}

TEST(RuntimeSystem, IndependentTasksRunInParallel) {
  RtRig rig;
  for (int i = 0; i < 4; ++i) {
    const Addr base = 0x10000000 + static_cast<Addr>(i) * 0x10000;
    const AddrRange r{base, base + 0x2000};
    const DepId d = rig.rt->region(r);
    rig.rt->create_task("t", {{d, DepUse::In}}, rig.tiny_prog(r));
  }
  bool done = false;
  rig.rt->run([&] { done = true; });
  rig.eq.run();
  ASSERT_TRUE(done);
  // All 4 cores used (tasks ran concurrently on distinct cores).
  std::set<CoreId> used;
  for (const auto& t : rig.rt->tasks()) used.insert(t.ran_on);
  EXPECT_EQ(used.size(), 4u);
}

TEST(RuntimeSystem, DependentChainSerializes) {
  RtRig rig;
  const AddrRange r{0x10000000, 0x10000400};
  const DepId d = rig.rt->region(r);
  for (int i = 0; i < 3; ++i)
    rig.rt->create_task("c", {{d, DepUse::InOut}},
                        rig.tiny_prog(r, AccessKind::Write));
  bool done = false;
  rig.rt->run([&] { done = true; });
  rig.eq.run();
  ASSERT_TRUE(done);
  const auto& tasks = rig.rt->tasks();
  EXPECT_LE(tasks[0].finished_at, tasks[1].started_at);
  EXPECT_LE(tasks[1].finished_at, tasks[2].started_at);
}

TEST(RuntimeSystem, TaskwaitGatesPhases) {
  RtRig rig;
  const AddrRange a{0x10000000, 0x10000400};
  const AddrRange b{0x20000000, 0x20000400};
  const DepId da = rig.rt->region(a);
  const DepId db = rig.rt->region(b);
  rig.rt->create_task("p0", {{da, DepUse::In}}, rig.tiny_prog(a));
  rig.rt->taskwait();
  // Independent data, but in the next phase: must not start early.
  rig.rt->create_task("p1", {{db, DepUse::In}}, rig.tiny_prog(b));
  bool done = false;
  rig.rt->run([&] { done = true; });
  rig.eq.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rig.rt->num_phases(), 2u);
  EXPECT_GE(rig.rt->task(1).started_at, rig.rt->task(0).finished_at);
}

TEST(RuntimeSystem, EmptyTaskwaitCoalesces) {
  RtRig rig;
  rig.rt->taskwait();
  rig.rt->taskwait();
  EXPECT_EQ(rig.rt->num_phases(), 1u);
}

TEST(RuntimeSystem, CompletesAllAndRecordsMakespan) {
  RtRig rig;
  for (int i = 0; i < 10; ++i) {
    const Addr base = 0x10000000 + static_cast<Addr>(i) * 0x1000;
    const AddrRange r{base, base + 0x400};
    rig.rt->create_task("t", {{rig.rt->region(r), DepUse::In}},
                        rig.tiny_prog(r));
  }
  bool done = false;
  rig.rt->run([&] { done = true; });
  rig.eq.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.rt->tasks_completed(), 10u);
  EXPECT_GT(rig.rt->makespan(), 0u);
}

TEST(RuntimeSystem, RunTwiceThrows) {
  RtRig rig;
  rig.rt->run([] {});
  EXPECT_THROW(rig.rt->run([] {}), RequireError);
}

TEST(Scheduler, FifoOrder) {
  FifoScheduler s;
  Task a, b;
  a.id = 0;
  b.id = 1;
  s.enqueue(a);
  s.enqueue(b);
  EXPECT_EQ(s.dequeue(0), &a);
  EXPECT_EQ(s.dequeue(0), &b);
  EXPECT_EQ(s.dequeue(0), nullptr);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, AffinityRequiresTaskTableBeforeDispatch) {
  AffinityScheduler s;
  // Empty queue: the early-exit fires before the wiring check, so probing
  // an idle scheduler never needs the table.
  EXPECT_EQ(s.dequeue(0), nullptr);
  Task t;
  t.id = 0;
  s.enqueue(t);
  // First real dispatch without set_tasks(): assembly forgot to wire the
  // runtime's task table — fail loudly instead of scheduling blind.
  EXPECT_THROW(s.dequeue(0), RequireError);
  std::vector<Task> tasks(1);
  tasks[0].id = 0;
  s.set_tasks(&tasks);
  EXPECT_EQ(s.dequeue(0), &t);
}

TEST(Scheduler, AffinityPrefersPredecessorCore) {
  std::vector<Task> tasks(3);
  tasks[0].id = 0;
  tasks[0].ran_on = 2;
  tasks[1].id = 1;
  tasks[1].predecessors = {0};
  tasks[2].id = 2;  // no affinity
  AffinityScheduler s;
  s.set_tasks(&tasks);
  s.enqueue(tasks[2]);
  s.enqueue(tasks[1]);
  // Core 2 should receive task 1 (its predecessor ran there).
  EXPECT_EQ(s.dequeue(2), &tasks[1]);
  EXPECT_EQ(s.dequeue(2), &tasks[2]);
}
