// C++20 coroutine plumbing that models Eden "processes" (threads of control
// within objects, paper section 4.2) on top of the discrete-event simulation.
//
//  * Task<T>      - a lazy coroutine returning T; operation handlers and
//                   reincarnation handlers are Tasks. Awaiting a Task starts
//                   it; completion resumes the awaiter (symmetric transfer).
//  * DetachedTask - an eager fire-and-forget coroutine; the coordinator and
//                   behaviors run as DetachedTasks.
//  * Future<T> /
//    Promise<T>   - one-shot value channel; the kernel completes a Promise
//                   when an invocation reply (or timeout) arrives, resuming
//                   the blocked invoker. Multiple waiters are permitted.
//  * SleepFor     - awaitable virtual-time delay.
//
// The whole system is single-threaded; none of this is thread-safe and none
// of it needs to be.
#ifndef EDEN_SRC_SIM_TASK_H_
#define EDEN_SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace eden {

// Unit type for Future<void>-like uses.
struct Unit {
  bool operator==(const Unit&) const { return true; }
};

// ---------------------------------------------------------------------------
// Task<T>: lazy coroutine with continuation chaining.
// ---------------------------------------------------------------------------

template <typename T>
class Task;

namespace task_internal {

template <typename T>
struct TaskPromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> handle) noexcept {
      std::coroutine_handle<> cont = handle.promise().continuation;
      if (cont) {
        return cont;
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace task_internal

// A lazily-started coroutine producing a T. Must be co_awaited (or explicitly
// Started) exactly once; the Task owns the coroutine frame.
template <typename T>
class Task {
 public:
  struct promise_type : task_internal::TaskPromiseBase<T> {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }

  // Awaitable interface.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() {
    assert(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// Task<void> specialization.
template <>
class Task<void> {
 public:
  struct promise_type : task_internal::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }

  // Top-level alternative to co_await: starts the task with no continuation.
  // On completion the frame suspends at final_suspend and waits for this
  // Task's destructor — unlike DetachedTask, the owner controls the frame's
  // lifetime, so a task still suspended at teardown is reclaimed rather than
  // leaked. `done()` tells the owner the frame is reapable.
  void Start() { handle_.resume(); }
  bool done() const { return handle_ != nullptr && handle_.done(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {}

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// ---------------------------------------------------------------------------
// DetachedTask: eager fire-and-forget coroutine.
// ---------------------------------------------------------------------------

// The coroutine starts running immediately when called and frees its own
// frame on completion. Used for top-level activities (coordinator dispatch,
// behaviors, test drivers).
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

// ---------------------------------------------------------------------------
// Future / Promise.
// ---------------------------------------------------------------------------

namespace task_internal {

template <typename T>
struct FutureState {
  std::optional<T> value;
  // Waiting coroutines, resumed in registration order. Nearly every future
  // has exactly one, so the first waits inline and the vector holds only
  // later ones.
  std::coroutine_handle<> first_waiter;
  std::vector<std::coroutine_handle<>> more_waiters;
  // Plain callbacks, invoked in FIFO order before any waiter resumes.
  std::vector<std::function<void()>> callbacks;
};

}  // namespace task_internal

template <typename T>
class Future;

// The producer half. Copyable (shared state); Set must be called at most once.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<task_internal::FutureState<T>>()) {}

  bool fulfilled() const { return state_->value.has_value(); }

  // Completes the future, invokes its callbacks, then resumes all waiters
  // (each group in registration order).
  void Set(T value) {
    assert(!state_->value.has_value() && "Promise::Set called twice");
    state_->value = std::move(value);
    std::coroutine_handle<> first = std::exchange(state_->first_waiter, nullptr);
    auto more = std::move(state_->more_waiters);
    state_->more_waiters.clear();
    auto callbacks = std::move(state_->callbacks);
    state_->callbacks.clear();
    for (auto& callback : callbacks) {
      callback();
    }
    if (first) {
      first.resume();
    }
    for (auto& handle : more) {
      handle.resume();
    }
  }

  Future<T> GetFuture() const;

 private:
  std::shared_ptr<task_internal::FutureState<T>> state_;
};

// The consumer half: awaitable. Copyable; all copies see the same value.
template <typename T>
class Future {
 public:
  Future() : state_(std::make_shared<task_internal::FutureState<T>>()) {}

  bool ready() const { return state_->value.has_value(); }

  // Valid only when ready().
  const T& Get() const {
    assert(ready());
    return *state_->value;
  }

  // Invokes `fn` when the value is set (immediately if already set).
  void OnReady(std::function<void()> fn) {
    if (ready()) {
      fn();
    } else {
      state_->callbacks.push_back(std::move(fn));
    }
  }

  // Like OnReady, but passes the value and — unlike capturing this Future in
  // an OnReady callback — does not keep the shared state alive from inside
  // its own callback list. Use this whenever the callback needs the result,
  // or when the future is also cached somewhere the callback references:
  // capturing the future there forms a reference cycle that leaks any
  // still-pending operation at teardown.
  void OnReadyValue(std::function<void(const T&)> fn) {
    if (ready()) {
      fn(*state_->value);
      return;
    }
    // The raw pointer is safe: the wrapper lives in this state's callback
    // list, so it can only run (or be destroyed) while the state is alive.
    auto* raw = state_.get();
    state_->callbacks.push_back(
        [raw, fn = std::move(fn)] { fn(*raw->value); });
  }

  // Awaitable interface.
  bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> handle) {
    if (!state_->first_waiter) {
      state_->first_waiter = handle;
    } else {
      state_->more_waiters.push_back(handle);
    }
  }
  T await_resume() { return *state_->value; }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<task_internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<task_internal::FutureState<T>> state_;
};

template <typename T>
Future<T> Promise<T>::GetFuture() const {
  return Future<T>(state_);
}

// ---------------------------------------------------------------------------
// Virtual-time sleep.
// ---------------------------------------------------------------------------

// co_await SleepFor(sim, Microseconds(100));
inline Future<Unit> SleepFor(Simulation& sim, SimDuration delay) {
  Promise<Unit> promise;
  sim.Schedule(delay, [promise]() mutable { promise.Set(Unit{}); });
  return promise.GetFuture();
}

// Launches a Task<void> as a detached activity. The Task's frame is kept
// alive by the wrapper coroutine until it completes.
inline DetachedTask Spawn(Task<void> task) {
  co_await task;
}

// Launches a Task<T> and exposes its eventual result as a Future<T>. Lets
// callback-style drivers (tests, benchmarks) consume coroutine-style library
// code.
template <typename T>
Future<T> Launch(Task<T> task) {
  Promise<T> promise;
  [](Task<T> owned, Promise<T> done) -> DetachedTask {
    done.Set(co_await owned);
  }(std::move(task), promise);
  return promise.GetFuture();
}

}  // namespace eden

#endif  // EDEN_SRC_SIM_TASK_H_
