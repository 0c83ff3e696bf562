#include "sim/event_queue.hpp"

#include <algorithm>

namespace tdn::sim {

void EventQueue::grow_pool() {
  chunks_.push_back(std::make_unique<Event[]>(kChunk));
  Event* base = chunks_.back().get();
  // Reserve *full pool capacity* for both vectors: every live slot can be
  // in the heap at once, and every slot can be on the free list at once.
  // This is what makes recycle() honestly noexcept (it runs in destructors
  // during exception unwind — an allocating push_back there would
  // std::terminate) and push_event() unable to fail after acquire.
  const std::size_t cap = chunks_.size() * kChunk;
  free_.reserve(cap);
  heap_.reserve(cap);
  for (std::size_t i = 0; i < kChunk; ++i) free_.push_back(base + i);
}

void EventQueue::push_event(Event* ev) noexcept {
  heap_.push_back(ev);  // cannot allocate: grow_pool reserved full capacity
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Event* EventQueue::pop_top() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event* ev = heap_.back();
  heap_.pop_back();
  return ev;
}

Cycle EventQueue::run() { return run_until(kNeverCycle); }

Cycle EventQueue::run_until(Cycle limit) {
  while (!heap_.empty()) {
    // Peek before popping: if the next real event is over the limit the
    // deadlock guard must fire *without* consuming it, so a caught overrun
    // leaves the queue resumable and the counters truthful.
    Event* top = heap_.front();
    if (!top->observer) {
      TDN_REQUIRE(top->when <= limit,
                  "simulation exceeded cycle limit (deadlock?)");
    }
    Event* ev = pop_top();
    // Recycle the slot whether the action returns or throws: a throwing
    // event is consumed (it cannot be un-run), but its slot and captured
    // state must not linger until pool teardown.
    struct Recycler {
      EventQueue* q;
      Event* e;
      ~Recycler() { q->recycle(e); }
    } recycler{this, ev};
    if (ev->observer) {
      --observer_pending_;
      // Observers past the limit are dropped, not an error: a cycle-limited
      // run must not be failed by a pending sampler tick. The drop is
      // counted so the scheduler of a periodic observer can re-arm.
      if (ev->when > limit) {
        ++observer_dropped_;
        continue;
      }
      now_ = ev->when;
      ev->fn();
      continue;
    }
    now_ = ev->when;
    ev->fn();
    // Counted only after the action completes: an action that throws is not
    // a (successfully) executed event.
    ++executed_;
  }
  return now_;
}

}  // namespace tdn::sim
