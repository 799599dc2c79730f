#include "sim/coro.hpp"

#include <cstdint>
#include <new>

#ifdef DT_POISON_FREE_FRAMES
#include <sanitizer/asan_interface.h>
#define DT_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DT_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DT_POISON(p, n) ((void)(p), (void)(n))
#define DT_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dyntrace::sim::detail {

namespace {

constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kClasses = 16;  // pooled frames up to 1 KiB
/// Per-class cap on cached frames, so a thread that only ever frees frames
/// other threads allocated cannot grow without bound.
constexpr std::uint32_t kMaxCached = 1u << 16;

struct FreeFrame {
  FreeFrame* next;
};

/// Trivially destructible, so the fast path needs no TLS guard; the reaper
/// below returns the cached frames to the heap at thread exit.
struct FramePool {
  FreeFrame* head[kClasses];
  std::uint32_t cached[kClasses];
  bool armed;    ///< the reaper is registered for this thread
  bool retired;  ///< the thread is exiting: bypass the lists
};

thread_local FramePool tls_pool{};

void drain(FramePool& pool) noexcept {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::size_t bytes = (c + 1) * kClassBytes;
    while (FreeFrame* frame = pool.head[c]) {
      DT_UNPOISON(frame, bytes);
      pool.head[c] = frame->next;
      ::operator delete(frame, bytes);
    }
    pool.cached[c] = 0;
  }
}

struct PoolReaper {
  bool armed = false;
  ~PoolReaper() {
    tls_pool.retired = true;
    drain(tls_pool);
  }
};

thread_local PoolReaper tls_reaper;

inline std::size_t size_class(std::size_t size) { return (size - 1) / kClassBytes; }

}  // namespace

void* frame_alloc(std::size_t size) {
  const std::size_t c = size_class(size);
  if (c >= kClasses) return ::operator new(size);
  FramePool& pool = tls_pool;
  FreeFrame* frame = pool.head[c];
  if (frame == nullptr) return ::operator new((c + 1) * kClassBytes);
  DT_UNPOISON(frame, (c + 1) * kClassBytes);
  pool.head[c] = frame->next;
  --pool.cached[c];
  return frame;
}

void frame_pool_release() noexcept { drain(tls_pool); }

void frame_free(void* frame, std::size_t size) noexcept {
  const std::size_t c = size_class(size);
  if (c >= kClasses) {
    ::operator delete(frame, size);
    return;
  }
  const std::size_t bytes = (c + 1) * kClassBytes;
  FramePool& pool = tls_pool;
  if (pool.retired || pool.cached[c] >= kMaxCached) {
    ::operator delete(frame, bytes);
    return;
  }
  if (!pool.armed) {
    tls_reaper.armed = true;  // first touch registers the destructor
    pool.armed = true;
  }
  auto* node = static_cast<FreeFrame*>(frame);
  node->next = pool.head[c];
  pool.head[c] = node;
  ++pool.cached[c];
  DT_POISON(node, bytes);
}

}  // namespace dyntrace::sim::detail
