#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace tdn::sim {

void EventQueue::grow_pool() {
  chunks_.push_back(std::make_unique<Event[]>(kChunk));
  Event* base = chunks_.back().get();
  // Reserve *full pool capacity* for both vectors: every live slot can be
  // in the overflow heap at once, and every slot can be on the free list at
  // once. This is what makes recycle() honestly noexcept (it runs in
  // destructors during exception unwind — an allocating push_back there
  // would std::terminate) and push_event() unable to fail after acquire.
  // Wheel buckets are intrusive lists and never allocate.
  const std::size_t cap = chunks_.size() * kChunk;
  free_.reserve(cap);
  heap_.reserve(cap);
  for (std::size_t i = 0; i < kChunk; ++i) free_.push_back(base + i);
}

void EventQueue::push_overflow(Event* ev) noexcept {
  heap_.push_back(ev);  // cannot allocate: grow_pool reserved full capacity
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t EventQueue::first_bucket() const noexcept {
  // Every wheel event lies in [now, now + kWheel), so scanning the mask
  // circularly from bucket now & 255 meets the earliest cycle first. The
  // start word is visited twice: its high bits first, its low bits last.
  const std::size_t start = now_ & (kWheel - 1);
  std::size_t w = start >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t i = 0; i <= occupied_.size(); ++i) {
    if (bits != 0) return (w << 6) | std::countr_zero(bits);
    w = (w + 1) % occupied_.size();
    bits = occupied_[w];
  }
  return kWheel;  // unreachable while the wheel holds an event
}

EventQueue::Event* EventQueue::pop_from(std::size_t bucket) noexcept {
  --size_;
  if (bucket == kWheel) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event* ev = heap_.back();
    heap_.pop_back();
    return ev;
  }
  Bucket& b = wheel_[bucket];
  Event* ev = b.head;
  b.head = ev->next;
  if (b.head == nullptr) {
    b.tail = nullptr;
    occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
  return ev;
}

void EventQueue::advance(Cycle when) noexcept {
  now_ = when;
  // A schedule goes straight to a bucket only for a cycle fewer than kWheel
  // ahead, so a cycle entering the window has nothing in its bucket yet:
  // the migrated events, moved in heap order, head each bucket's FIFO.
  while (!heap_.empty() && heap_.front()->when - now_ < kWheel) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    append(heap_.back());
    heap_.pop_back();
  }
}

Cycle EventQueue::run() { return run_until(kNeverCycle); }

Cycle EventQueue::run_until(Cycle limit) {
  while (size_ != 0) {
    // Peek before popping: if the next real event is over the limit the
    // deadlock guard must fire *without* consuming it, so a caught overrun
    // leaves the queue resumable and the counters truthful.
    // The wheel holds everything earlier than the overflow heap.
    const std::size_t bucket =
        size_ == heap_.size() ? kWheel : first_bucket();
    const Event* top = bucket == kWheel ? heap_.front() : wheel_[bucket].head;
    if (!top->observer) {
      TDN_REQUIRE(top->when <= limit,
                  "simulation exceeded cycle limit (deadlock?)");
    }
    Event* ev = pop_from(bucket);
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
      // run must not be failed by a pending sampler tick.
      if (ev->when > limit) continue;
    }
    if (ev->when != now_) advance(ev->when);
    ev->fn();
    // Counted only after the action completes: an action that throws is not
    // a (successfully) executed event.
    if (!ev->observer) ++executed_;
  }
  return now_;
}

}  // namespace tdn::sim
