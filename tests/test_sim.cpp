// Unit tests: event queue determinism, the pooled/inline-callable substrate
// and the Joiner completion helper.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/prng.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/joiner.hpp"

using namespace tdn;
using namespace tdn::sim;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
  EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameCycleFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.schedule_at(5, [&, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] {
    eq.schedule_in(5, [&] { ++fired; });
  });
  eq.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, CannotScheduleInThePast) {
  EventQueue eq;
  eq.schedule_at(10, [&] {
    EXPECT_THROW(eq.schedule_at(5, [] {}), RequireError);
  });
  eq.run();
}

TEST(EventQueue, RunUntilThrowsOnOverrun) {
  EventQueue eq;
  eq.schedule_at(100, [] {});
  EXPECT_THROW(eq.run_until(50), RequireError);
}

TEST(EventQueue, ResumeAfterCaughtLimitOverrun) {
  // Regression: the deadlock guard used to pop the over-limit event before
  // throwing, so catching the overrun lost an event. The guard now peeks, so
  // a caught overrun leaves the queue resumable with a higher limit.
  EventQueue eq;
  std::vector<Cycle> ran;
  eq.schedule_at(10, [&] { ran.push_back(eq.now()); });
  eq.schedule_at(100, [&] { ran.push_back(eq.now()); });
  EXPECT_THROW(eq.run_until(50), RequireError);
  EXPECT_EQ(eq.now(), 10u);
  EXPECT_EQ(eq.executed(), 1u);
  EXPECT_EQ(eq.pending(), 1u);
  // Resume: the previously over-limit event must still fire.
  EXPECT_EQ(eq.run_until(200), 100u);
  EXPECT_EQ(ran, (std::vector<Cycle>{10, 100}));
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ThrowingActionIsConsumedButNotCounted) {
  // An action that throws cannot be un-run, so its event is consumed (and
  // its pool slot recycled), but it is not counted in executed(). The rest
  // of the queue stays intact and runnable.
  EventQueue eq;
  bool later_ran = false;
  eq.schedule_at(5, [] { throw std::runtime_error("boom"); });
  eq.schedule_at(10, [&] { later_ran = true; });
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(eq.executed(), 0u);
  EXPECT_EQ(eq.pending(), 1u);
  eq.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, PoolRecyclesSlotsAcrossWaves) {
  // Thousands of sequential events must reuse a handful of pooled slots:
  // the pool high-water mark tracks peak *pending* events, not total count.
  EventQueue eq;
  std::uint64_t fired = 0;
  for (int wave = 0; wave < 100; ++wave) {
    for (int i = 0; i < 8; ++i) {
      eq.schedule_in(static_cast<Cycle>(i + 1), [&] { ++fired; });
    }
    eq.run();
  }
  EXPECT_EQ(fired, 800u);
  EXPECT_EQ(eq.executed(), 800u);
  // 8 concurrent events fit comfortably in the first 256-slot chunk.
  EXPECT_LE(eq.pool_slots(), 256u);
}

TEST(EventQueue, PoolChurnPastOneChunkKeepsRecycleCapacity) {
  // Regression: recycle() is noexcept (it runs in destructors during
  // unwind) but free_.push_back could allocate once the pool grew past one
  // chunk — grow_pool reserved only the new chunk's worth. The invariant is
  // now free_capacity() >= pool_slots() at every growth step, so a recycle
  // can never allocate no matter how the pool churns.
  EventQueue eq;
  std::uint64_t fired = 0;
  for (int wave = 0; wave < 4; ++wave) {
    // 600 concurrent events force the pool well past the first 256-slot
    // chunk; draining them returns every slot through recycle().
    for (int i = 0; i < 600; ++i) {
      eq.schedule_in(static_cast<Cycle>(i % 7) + 1, [&] { ++fired; });
    }
    eq.run();
    EXPECT_GE(eq.free_capacity(), eq.pool_slots());
  }
  EXPECT_EQ(fired, 2400u);
  EXPECT_GE(eq.pool_slots(), 512u);
}

namespace {
// Copying throws, moving does not — the only failure InlineFunction::emplace
// admits (captures must be nothrow-move-constructible), so this is the
// exception-safety injection vector for the schedule paths.
struct ThrowOnCopy {
  bool* ran;
  explicit ThrowOnCopy(bool* r) : ran(r) {}
  ThrowOnCopy(const ThrowOnCopy& other) : ran(other.ran) {
    throw std::runtime_error("capture copy failed");
  }
  ThrowOnCopy(ThrowOnCopy&&) noexcept = default;
  void operator()() const { *ran = true; }
};
}  // namespace

TEST(EventQueue, ThrowingCaptureLeaksNoEventOrSeq) {
  // Strong guarantee on schedule_at: a capture constructor that throws must
  // leave the queue exactly as it was — no pending event, no consumed pool
  // slot, and no skipped sequence number (same-cycle FIFO stays gapless).
  EventQueue eq;
  std::vector<int> order;
  bool bad_ran = false;
  eq.schedule_at(5, [&] { order.push_back(1); });
  const std::size_t slots = eq.pool_slots();
  ThrowOnCopy bad{&bad_ran};
  EXPECT_THROW(eq.schedule_at(5, bad), std::runtime_error);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_EQ(eq.pool_slots(), slots);
  eq.schedule_at(5, [&] { order.push_back(2); });
  eq.run();
  EXPECT_FALSE(bad_ran);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, ThrowingObserverCaptureLeavesCensusUntouched) {
  // Regression: schedule_observer_at bumped observer_pending_ before the
  // push that could throw, so a failed emplace skewed the observer census
  // (real_pending() and the ckpt quiescence check read it) and leaked a
  // stamped seq. The counter now moves only after the event is in the heap.
  EventQueue eq;
  bool bad_ran = false;
  eq.schedule_at(10, [] {});
  eq.schedule_observer_at(5, [] {});
  ThrowOnCopy bad{&bad_ran};
  EXPECT_THROW(eq.schedule_observer_at(7, bad), std::runtime_error);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_EQ(eq.observer_pending(), 1u);
  EXPECT_EQ(eq.real_pending(), 1u);
  // The queue stays fully usable: both surviving events run normally.
  eq.run();
  EXPECT_FALSE(bad_ran);
  EXPECT_EQ(eq.executed(), 1u);
  EXPECT_EQ(eq.observer_pending(), 0u);
}

TEST(InlineFunction, CallsAndReturnsThroughTheInlineBuffer) {
  InlineFunction<int(int), 64> f = [](int x) { return x * 2; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(21), 42);
}

TEST(InlineFunction, MoveTransfersStateAndEmptiesSource) {
  int calls = 0;
  InlineFunction<void(), 64> a = [&calls] { ++calls; };
  InlineFunction<void(), 64> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InlineFunction<void(), 64> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, DestroysCaptureOnResetAndDestruction) {
  auto token = std::make_shared<int>(7);
  {
    InlineFunction<void(), 64> f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    f.reset();
    EXPECT_EQ(token.use_count(), 1);
    f.emplace([token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(5);
  InlineFunction<int(), 64> f = [p = std::move(owned)] { return *p; };
  EXPECT_EQ(f(), 5);
}

TEST(InlineFunction, NearCapacityCaptureFitsInline) {
  // A capture filling (almost) the whole Action budget still compiles and
  // round-trips through the event queue — the compile-time contract that
  // real coherence continuations rely on.
  struct Big {
    unsigned char bytes[kActionCapacity - 8];
  };
  Big big{};
  std::memset(big.bytes, 0x5a, sizeof big.bytes);
  unsigned char seen = 0;
  EventQueue eq;
  eq.schedule_at(1, [big, &seen] { seen = big.bytes[sizeof(Big::bytes) - 1]; });
  eq.run();
  EXPECT_EQ(seen, 0x5a);
}

TEST(EventQueue, ZeroDelaySameCycle) {
  EventQueue eq;
  bool ran = false;
  eq.schedule_at(7, [&] { eq.schedule_in(0, [&] { ran = true; }); });
  eq.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, ObserverEventsExcludedFromAccounting) {
  EventQueue eq;
  int real = 0;
  int observed = 0;
  eq.schedule_at(10, [&] { ++real; });
  eq.schedule_observer_at(5, [&] { ++observed; });
  eq.schedule_observer_in(20, [&] { ++observed; });
  EXPECT_EQ(eq.pending(), 3u);
  EXPECT_EQ(eq.real_pending(), 1u);
  eq.run();
  EXPECT_EQ(real, 1);
  EXPECT_EQ(observed, 2);
  // Observer callbacks run but never count as executed events.
  EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, ObserverBeyondLimitIsDroppedNotFatal) {
  EventQueue eq;
  bool observed = false;
  eq.schedule_at(10, [] {});
  eq.schedule_observer_at(100, [&] { observed = true; });
  // A real event past the limit throws; a pending observer tick must not.
  eq.run_until(50);
  EXPECT_FALSE(observed);
  EXPECT_EQ(eq.executed(), 1u);
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_EQ(eq.observer_pending(), 0u);  // dropped, not left queued
}

TEST(EventQueue, ObserverInterleavesAtCorrectCycles) {
  EventQueue eq;
  std::vector<Cycle> at;
  eq.schedule_at(10, [&] { at.push_back(eq.now()); });
  eq.schedule_observer_at(15, [&] { at.push_back(eq.now()); });
  eq.schedule_at(20, [&] { at.push_back(eq.now()); });
  eq.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 10u);
  EXPECT_EQ(at[1], 15u);
  EXPECT_EQ(at[2], 20u);
}

namespace {
// Random schedule over every placement the queue distinguishes: the current
// cycle, a few cycles ahead, straddling the 256-cycle wheel edge and far
// past it. Each action records when it ran and in what order it was
// scheduled, and may schedule children.
struct RandomSchedule {
  EventQueue eq;
  SplitMix64 rng;
  std::uint64_t scheduled = 0;
  std::uint64_t observers = 0;
  struct Run {
    Cycle due;
    Cycle at;
    std::uint64_t order;
  };
  std::vector<Run> runs;

  explicit RandomSchedule(std::uint64_t seed) : rng(seed) {}

  Cycle delay() {
    const std::uint64_t r = rng.next_below(10);
    if (r < 2) return 0;
    if (r < 5) return 1 + rng.next_below(3);
    if (r < 8) return 250 + rng.next_below(12);
    return rng.next_below(3001);
  }
  void spawn() {
    const Cycle due = eq.now() + delay();
    const std::uint64_t order = scheduled++;
    auto action = [this, due, order] {
      runs.push_back({due, eq.now(), order});
      if (scheduled < 4000) {
        const std::uint64_t children = rng.next_below(4);
        for (std::uint64_t c = 0; c < children; ++c) spawn();
      }
    };
    if (rng.next_below(10) == 0) {
      ++observers;
      eq.schedule_observer_at(due, action);
    } else {
      eq.schedule_at(due, action);
    }
  }
};
}  // namespace

TEST(EventQueue, RandomSchedulesRunInWhenThenScheduleOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    RandomSchedule s(seed);
    for (int i = 0; i < 8; ++i) s.spawn();
    s.eq.run();
    ASSERT_EQ(s.runs.size(), s.scheduled);  // none lost
    EXPECT_TRUE(s.eq.empty());
    EXPECT_EQ(s.eq.executed(), s.scheduled - s.observers);
    for (std::size_t i = 0; i < s.runs.size(); ++i) {
      ASSERT_EQ(s.runs[i].at, s.runs[i].due);
      if (i == 0) continue;
      const auto& a = s.runs[i - 1];
      const auto& b = s.runs[i];
      ASSERT_TRUE(a.due < b.due || (a.due == b.due && a.order < b.order))
          << "event " << i;
    }
  }
}

TEST(EventQueue, ResumeAfterOverrunAcrossTheWheelEdge) {
  // The over-limit event sits in the wheel and a later one in the overflow
  // heap; resuming must run both, and an event scheduled between the runs,
  // at their cycles and in order.
  EventQueue eq;
  std::vector<Cycle> ran;
  const auto record = [&] { ran.push_back(eq.now()); };
  eq.schedule_at(10, [&] {
    record();
    eq.schedule_in(250, record);  // cycle 260: in the wheel
  });
  eq.schedule_at(700, record);  // overflow
  EXPECT_THROW(eq.run_until(255), RequireError);
  EXPECT_EQ(eq.now(), 10u);
  EXPECT_EQ(eq.pending(), 2u);
  eq.schedule_at(400, record);  // overflow, scheduled after the overrun
  EXPECT_EQ(eq.run_until(1000), 700u);
  EXPECT_EQ(ran, (std::vector<Cycle>{10, 260, 400, 700}));
  EXPECT_EQ(eq.executed(), 4u);
  EXPECT_TRUE(eq.empty());
}

TEST(Joiner, FiresWhenArmedAndDrained) {
  bool done = false;
  auto j = make_joiner([&] { done = true; });
  j->add(2);
  j->arm();
  EXPECT_FALSE(done);
  j->complete();
  EXPECT_FALSE(done);
  j->complete();
  EXPECT_TRUE(done);
}

TEST(Joiner, FiresImmediatelyWhenNothingPending) {
  bool done = false;
  auto j = make_joiner([&] { done = true; });
  j->arm();
  EXPECT_TRUE(done);
}

TEST(Joiner, CompletionBeforeArmDoesNotFireTwice) {
  int fires = 0;
  auto j = make_joiner([&] { ++fires; });
  j->add();
  j->complete();
  j->arm();
  EXPECT_EQ(fires, 1);
}
