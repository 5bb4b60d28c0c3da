// Small-buffer-optimized, move-only callable for simulation events.
//
// The event loop is the hottest code in the repository: every frame hop,
// timer and retransmit constructs one of these. std::function heap-allocates
// any capture that is not trivially copyable (a lambda holding a shared_ptr,
// for instance), and always costs a type-erased copy even when it fits
// inline. EventFn instead stores any callable up to kInlineBytes directly in
// the object and only falls back to the heap for oversized captures. It is
// move-only (events fire once; nothing ever copies them) and invocation is
// one indirect call, same as std::function.
#ifndef EDEN_SRC_SIM_EVENT_FN_H_
#define EDEN_SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace eden {

class EventFn {
 public:
  // Inline capture budget. It holds the largest per-message captures: the
  // CSMA delivery event's Frame by value (Lan::FinishTransmission) and the
  // kernel's send and reply events (this, a station, a SpanContext and the
  // encoded Bytes). Timers with a few ids or pointers fit with room to spare.
  static constexpr size_t kInlineBytes = 96;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &OpsFor<Fn, /*Inline=*/true>::ops;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &OpsFor<Fn, /*Inline=*/false>::ops;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(Target()); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Destroys the held callable (no-op when empty).
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(Target());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *self into dst and destroys *self (inline storage only).
    void (*relocate)(void* self, void* dst);
    void (*destroy)(void* self);
    bool stored_inline;
  };

  template <typename Fn, bool Inline>
  struct OpsFor {
    static void Invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void Relocate(void* self, void* dst) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(self)));
      static_cast<Fn*>(self)->~Fn();
    }
    static void Destroy(void* self) {
      if constexpr (Inline) {
        static_cast<Fn*>(self)->~Fn();
      } else {
        delete static_cast<Fn*>(self);
      }
    }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, Inline};
  };

  void* Target() noexcept {
    return ops_->stored_inline ? static_cast<void*>(storage_) : heap_;
  }

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->stored_inline) {
      ops_->relocate(other.storage_, storage_);
    } else {
      heap_ = other.heap_;
      other.heap_ = nullptr;
    }
    other.ops_ = nullptr;
  }

  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

}  // namespace eden

#endif  // EDEN_SRC_SIM_EVENT_FN_H_
