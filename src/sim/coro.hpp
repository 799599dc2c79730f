// Coro<T>: the coroutine type simulated processes are written in.
//
// A Coro is lazy: creating one does not run any code.  It starts when it is
// co_await-ed by another coroutine (or spawned as a root process on the
// Engine).  On completion it resumes its awaiter via symmetric transfer, so
// arbitrarily deep call chains of simulated procedures cost no host stack.
//
// Exceptions thrown inside a Coro propagate to the awaiter, exactly like a
// normal function call; the Engine turns exceptions that escape a root
// process into a simulation failure.
//
// Frames are recycled: every simulated call creates several coroutines, so
// the promise allocates its frame from thread-local free lists of 64-byte
// size classes instead of the heap (detail::frame_alloc).  A frame may be
// freed on another thread than the one that allocated it; it then joins the
// freeing thread's list.  Under AddressSanitizer a free frame is poisoned
// until reused, so touching a destroyed coroutine still faults.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "support/common.hpp"

// Set when building under AddressSanitizer (gcc defines the macro, clang
// answers __has_feature): free pooled frames are then poisoned.
#if defined(__SANITIZE_ADDRESS__)
#define DT_POISON_FREE_FRAMES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DT_POISON_FREE_FRAMES 1
#endif
#endif

namespace dyntrace::sim {

template <typename T>
class Coro;

namespace detail {

/// A coroutine frame of `size` bytes from the calling thread's free list
/// (the heap when the list is empty or the frame is larger than 1 KiB).
void* frame_alloc(std::size_t size);
/// Return a frame from frame_alloc(size) to the calling thread's free list.
void frame_free(void* frame, std::size_t size) noexcept;
/// Return the calling thread's cached frames to the heap.  Engines call it
/// when destroyed, so a finished simulation's frames do not outlive it (a
/// later set-up would otherwise reuse them scattered across the heap).
void frame_pool_release() noexcept;

struct PromiseBase {
  static void* operator new(std::size_t size) { return frame_alloc(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    frame_free(frame, size);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started simulated procedure returning T.
template <typename T = void>
class [[nodiscard]] Coro {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Coro() = default;
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // --- awaitable interface -------------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    DT_ASSERT(handle_ && !handle_.done(), "awaiting an invalid or finished Coro");
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child coroutine
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    DT_ASSERT(p.value.has_value(), "Coro finished without a value");
    return std::move(*p.value);
  }

  /// For Engine::spawn: release ownership of the handle.
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// void specialization.
template <>
class [[nodiscard]] Coro<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Coro() = default;
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    DT_ASSERT(handle_ && !handle_.done(), "awaiting an invalid or finished Coro");
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  friend struct promise_type;
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dyntrace::sim
