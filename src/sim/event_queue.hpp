// Discrete-event simulation engine.
//
// A single event queue drives the whole system. Events scheduled for the
// same cycle execute in schedule order (a monotonically increasing sequence
// number breaks ties), which makes every run fully deterministic (DESIGN.md
// decision 6).
//
// Performance model (DESIGN.md decision 1): events live in a recycled pool
// and their callables are stored inline (InlineFunction), so steady-state
// scheduling and dispatch never touch the heap allocator. Pending events sit
// in a 256-slot timing wheel backed by an overflow heap (Brown's calendar
// queue, CACM 1988): an event less than 256 cycles ahead joins the FIFO of
// bucket `when & 255` through an intrusive link, and a 256-bit occupancy mask
// finds the next non-empty bucket. Later events wait in a binary heap of
// Event* ordered by (when, seq). Whenever the clock advances, every overflow
// event that has come inside the window moves to its bucket before the next
// action runs; it was scheduled before anything scheduled directly into that
// bucket, so each bucket's FIFO is (when, seq) order and the dispatch order
// is exactly the plain heap's — every fingerprint golden stays bit-identical.
//
// Exception safety: grow_pool() reserves *full pool capacity* for both the
// free list and the overflow heap, so once a slot is acquired neither
// push_event() nor recycle() can allocate. That makes recycle() honestly
// noexcept (it runs in destructors during unwind) and lets commit() stamp the
// sequence number and observer census only after the action is safely in
// place — a throwing capture constructor leaks no seq and skews no counter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"
#include "sim/inline_function.hpp"

namespace tdn::sim {

/// Inline-capture budget for one event action. Sized for the largest
/// capture on the coherence path: an MSHR fill callback (a 96-byte
/// InlineFunction, 112 bytes in all) replayed through the queue. Anything
/// larger fails to compile — see InlineFunction.
inline constexpr std::size_t kActionCapacity = 120;

/// The event-queue callable. Also used directly for per-message delivery
/// continuations (noc::Network) and blocked-directory queues
/// (coherence::CoherentSystem) so those paths are allocation-free too.
using Action = InlineFunction<void(), kActionCapacity>;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule a callable to run at absolute cycle @p when (>= now()).
  /// The callable is emplaced directly into a pooled event slot: no heap
  /// allocation, and captures larger than kActionCapacity fail to compile.
  /// Strong exception guarantee: if the capture constructor throws, the
  /// slot returns to the pool and no seq or counter moves.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action>>>
  void schedule_at(Cycle when, F&& fn) {
    Event* ev = acquire(when, /*observer=*/false);
    PoolGuard guard{this, ev};
    ev->fn.emplace(std::forward<F>(fn));
    commit(ev);
    guard.release();
  }
  /// Overload for an already-built Action (moved, not re-wrapped).
  void schedule_at(Cycle when, Action fn) {
    Event* ev = acquire(when, /*observer=*/false);
    PoolGuard guard{this, ev};
    ev->fn = std::move(fn);
    commit(ev);
    guard.release();
  }

  /// Schedule a callable to run @p delay cycles from now.
  template <typename F>
  void schedule_in(Cycle delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule an *observer* event: it runs like a normal event but is
  /// invisible to the simulation's accounting — it is excluded from
  /// executed(), from real_pending(), and from the run_until() cycle-limit
  /// check (beyond-limit observers are silently dropped). Observer actions
  /// must never mutate simulation state; the obs epoch sampler uses them so
  /// that recording on/off yields bit-identical results.
  ///
  /// The observer census (real_pending(), the ckpt quiescence check) is
  /// updated inside commit(), after the push that can no longer fail — a
  /// throwing capture constructor leaves the census untouched.
  template <typename F>
  void schedule_observer_at(Cycle when, F&& fn) {
    Event* ev = acquire(when, /*observer=*/true);
    PoolGuard guard{this, ev};
    ev->fn.emplace(std::forward<F>(fn));
    commit(ev);
    guard.release();
  }
  template <typename F>
  void schedule_observer_in(Cycle delay, F&& fn) {
    schedule_observer_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue drains. Returns the final cycle.
  Cycle run();
  /// Run events with a hard cycle limit (deadlock guard in tests).
  /// Returns the final cycle; throws RequireError if the limit is exceeded.
  ///
  /// The guard is non-destructive: the over-limit event is *peeked*, not
  /// popped, so a caught overrun leaves the queue, now() and executed()
  /// exactly as they were after the last in-limit event — the run can be
  /// resumed with a higher limit. An event whose action throws is consumed
  /// (it cannot be un-run) but is not counted in executed(); the remaining
  /// events stay queued and runnable.
  Cycle run_until(Cycle limit);

  Cycle now() const noexcept { return now_; }

  /// Jump a *fresh* queue's clock to @p cycle (checkpoint restore: the
  /// rebuilt machine resumes at the snapshot's quiescent point, and
  /// everything re-armed afterwards — remaining arrivals, periodic chains,
  /// observer samplers — schedules at absolute post-restore cycles). Only
  /// legal before anything has been scheduled or run, so it can never skip
  /// over a pending event.
  void fast_forward(Cycle cycle) {
    TDN_REQUIRE(size_ == 0 && executed_ == 0 && now_ == 0,
                "fast_forward is restore-only: queue must be fresh");
    now_ = cycle;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t pending() const noexcept { return size_; }
  /// Pending events excluding observers — "is the simulation still live?".
  std::size_t real_pending() const noexcept {
    return size_ - observer_pending_;
  }
  /// Observer events still queued (sampler ticks, watchdog checks).
  std::size_t observer_pending() const noexcept { return observer_pending_; }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Event slots ever allocated (pool high-water mark, rounded up to the
  /// chunk size). Steady-state simulation recycles slots, so this tracks
  /// peak pending concurrency, not event count — exposed for the substrate
  /// bench and the pool-recycling tests.
  std::size_t pool_slots() const noexcept { return chunks_.size() * kChunk; }
  /// Free-list capacity — the pool-churn regression test asserts this never
  /// falls below pool_slots(), the invariant that keeps recycle() noexcept.
  std::size_t free_capacity() const noexcept { return free_.capacity(); }

 private:
  struct Event {
    Cycle when = 0;
    std::uint64_t seq = 0;
    bool observer = false;
    Event* next = nullptr;  ///< FIFO link inside a wheel bucket
    Action fn;
  };
  struct Later {
    bool operator()(const Event* a, const Event* b) const noexcept {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };
  static constexpr std::size_t kChunk = 256;
  /// Wheel span: an event fewer than kWheel cycles ahead goes to a bucket.
  static constexpr Cycle kWheel = 256;
  struct Bucket {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  /// Returns an acquired-but-uncommitted slot to the free list when the
  /// action's capture constructor throws. recycle() cannot allocate
  /// (grow_pool invariant), so unwinding stays safe.
  struct PoolGuard {
    EventQueue* q;
    Event* ev;
    ~PoolGuard() {
      if (ev != nullptr) q->recycle(ev);
    }
    void release() noexcept { ev = nullptr; }
  };

  /// Grab a free pooled slot (allocating a new chunk only when the free
  /// list is empty) and stamp it with (when, observer). The seq is stamped
  /// later, by commit(), so an abandoned slot never consumes one.
  Event* acquire(Cycle when, bool observer) {
    TDN_REQUIRE(when >= now_, "cannot schedule an event in the past");
    if (free_.empty()) grow_pool();
    Event* ev = free_.back();
    free_.pop_back();
    ev->when = when;
    ev->observer = observer;
    return ev;
  }

  /// Stamp the seq and enqueue a fully-built event. Runs only after the
  /// action is in place and cannot throw, so a failed capture leaves seq
  /// counters, the queue and the observer census untouched — the caller's
  /// PoolGuard returns the slot.
  void commit(Event* ev) noexcept {
    ev->seq = next_seq_++;
    push_event(ev);
    if (ev->observer) ++observer_pending_;
  }

  void push_event(Event* ev) noexcept {
    ++size_;
    if (ev->when - now_ < kWheel) {
      append(ev);
    } else {
      push_overflow(ev);
    }
  }
  /// Append to the FIFO of bucket `when & 255` and mark it occupied.
  void append(Event* ev) noexcept {
    const std::size_t i = ev->when & (kWheel - 1);
    Bucket& b = wheel_[i];
    ev->next = nullptr;
    if (b.tail == nullptr) {
      b.head = ev;
      occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
    } else {
      b.tail->next = ev;
    }
    b.tail = ev;
  }
  void push_overflow(Event* ev) noexcept;
  /// Index of the first occupied bucket at or after now() (wheel non-empty).
  std::size_t first_bucket() const noexcept;
  /// Unlink the head of @p bucket, or the overflow heap's top when @p bucket
  /// is kWheel; the caller runs the action and then recycles.
  Event* pop_from(std::size_t bucket) noexcept;
  /// Set the clock to @p when and move every overflow event now inside the
  /// window into its bucket.
  void advance(Cycle when) noexcept;
  void recycle(Event* ev) noexcept {
    ev->fn.reset();
    free_.push_back(ev);  // cannot allocate: grow_pool reserved full capacity
  }
  void grow_pool();

  std::array<Bucket, kWheel> wheel_{};
  std::array<std::uint64_t, kWheel / 64> occupied_{};  ///< non-empty buckets
  std::size_t size_ = 0;      ///< pending events, wheel and overflow
  std::vector<Event*> heap_;  ///< overflow min-heap: events >= kWheel ahead
  std::vector<Event*> free_;  ///< recycled slots
  std::vector<std::unique_ptr<Event[]>> chunks_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t observer_pending_ = 0;
};

}  // namespace tdn::sim
