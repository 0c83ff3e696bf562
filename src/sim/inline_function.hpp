// InlineFunction — a move-only std::function replacement whose captured
// state always lives in an in-object buffer, never on the heap.
//
// The event-driven substrate dispatches millions of closures per simulated
// second; std::function's small-buffer window (16 bytes on libstdc++) is far
// smaller than a typical coherence continuation, so the type-erased closure
// path allocated on almost every schedule/send. InlineFunction makes the
// capture size a compile-time contract instead: a callable that does not fit
// the buffer fails to build (static_assert), which keeps the hot path
// allocation-free by construction rather than by luck. The same discipline
// as gem5's pooled/intrusive events, expressed as a vocabulary type.
//
// Event actions, message deliveries, blocked-directory waiters and the core's
// resume slots are sim::Action (120 bytes). An InlineFunction cannot hold one
// of its own capacity, so a callable that travels inside an Action uses a
// smaller one (the MSHR's 96-byte fill callbacks), and the rare paths that
// must carry a whole Action further (dead-link and full-MSHR retries) box it.
// What still allocates per event is std::function: CoherentSystem::access
// continuations larger than its 16-byte buffer (page-walk steps) and the
// page walker's per-walk state.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tdn::sim {

template <typename Sig, std::size_t Cap>
class InlineFunction;

template <typename R, typename... Args, std::size_t Cap>
class InlineFunction<R(Args...), Cap> {
 public:
  static constexpr std::size_t kCapacity = Cap;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit) — drop-in for std::function
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// Construct a callable in place. The static_asserts are the no-heap
  /// guarantee: every capture must fit the inline buffer and be nothrow
  /// movable (events move between pool slots, never throw mid-sift).
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, InlineFunction>,
                  "use move assignment, not emplace, for InlineFunction");
    static_assert(sizeof(Fn) <= Cap,
                  "capture too large for the inline buffer: shrink the "
                  "capture (capture pointers/ids, not objects) or raise Cap");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-move-constructible");
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p, Args... args) -> R {
      return (*std::launder(reinterpret_cast<Fn*>(p)))(
          std::forward<Args>(args)...);
    };
    // One manager for both lifetime operations: dst == nullptr destroys the
    // source; otherwise it move-constructs into dst and destroys the source.
    manage_ = [](void* dst, void* src) noexcept {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      if (dst != nullptr) ::new (dst) Fn(std::move(*s));
      s->~Fn();
    };
  }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void reset() noexcept {
    if (invoke_ != nullptr) {
      manage_(nullptr, buf_);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      manage_(buf_, other.buf_);
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Cap];
  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(void* dst, void* src) noexcept = nullptr;
};

}  // namespace tdn::sim
