// Coroutine frame recycling: frames come back through thread-local free
// lists, survive being freed on another thread than the one that allocated
// them, and stay poisoned while free under AddressSanitizer.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/coro.hpp"
#include "sim/parallel_engine.hpp"

#ifdef DT_POISON_FREE_FRAMES
#include <sanitizer/asan_interface.h>
#endif

namespace dyntrace::sim {
namespace {

Coro<int> seven() { co_return 7; }

TEST(CoroFramePool, FreedFrameIsReusedBySameSizedCoroutine) {
  auto first = seven().release();
  void* const frame = first.address();
  first.destroy();
  auto second = seven().release();
  EXPECT_EQ(second.address(), frame);
  second.destroy();
}

TEST(CoroFramePool, FrameFreedOnAnotherThreadIsReusedThere) {
  std::coroutine_handle<> handle;
  void* frame = nullptr;
  std::thread([&] {
    handle = seven().release();
    frame = handle.address();
  }).join();
  void* reused = nullptr;
  std::thread([&] {
    handle.destroy();  // joins this thread's free list
    auto again = seven().release();
    reused = again.address();
    again.destroy();
  }).join();
  EXPECT_EQ(reused, frame);
}

// --- through the parallel engine --------------------------------------------

constexpr TimeNs kLookahead = 10;

Coro<std::uint64_t> nested(Engine& home, int node, int depth) {
  co_await home.sleep(static_cast<TimeNs>((node * 7 + depth * 13) % 29) + 1);
  if (depth == 0) co_return static_cast<std::uint64_t>(node);
  const std::uint64_t below = co_await nested(home, node, depth - 1);
  co_return below * 31 + static_cast<std::uint64_t>(depth);
}

/// A ring of nodes whose every step runs a chain of nested coroutines, so
/// frames are created and destroyed in every window.  With two shards the
/// coordinator runs whichever shard is first active, so a shard's frames
/// are allocated on one thread and freed on the other as windows alternate;
/// root frames are created here and freed by whichever thread finishes them.
std::vector<std::vector<std::uint64_t>> run_nested_ring(int shards) {
  constexpr int kNodes = 6;
  constexpr int kSteps = 60;
  ParallelEngine group(ParallelEngine::Options{shards, kLookahead});
  std::vector<std::vector<std::uint64_t>> logs(kNodes);
  auto node_main = [&](int node) -> Coro<void> {
    Engine& home = group.shard(node % shards);
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t value = co_await nested(home, node, 1 + step % 4);
      auto& log = logs[static_cast<std::size_t>(node)];
      log.push_back(value + static_cast<std::uint64_t>(home.now()));
      const int dst = (node + 1) % kNodes;
      Engine& peer = group.shard(dst % shards);
      peer.deliver_at(kLookahead + (step + 1) * 1000 + node, [&logs, &peer, dst, step] {
        logs[static_cast<std::size_t>(dst)].push_back(static_cast<std::uint64_t>(peer.now()) +
                                                      static_cast<std::uint64_t>(step));
      });
    }
  };
  for (int node = 0; node < kNodes; ++node) {
    group.shard(node % shards).spawn(node_main(node), "nested.node" + std::to_string(node));
  }
  group.run();
  return logs;
}

TEST(CoroFramePool, RecycledFramesCrossShardThreadsAtSimThreads2) {
  const auto sequential = run_nested_ring(1);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_nested_ring(2), sequential) << "rep " << rep;
  }
}

// --- AddressSanitizer keeps catching use-after-destroy ------------------------

#ifdef DT_POISON_FREE_FRAMES

TEST(CoroFramePool, FreeFrameIsPoisonedUntilReused) {
  auto first = seven().release();
  void* const frame = first.address();
  first.destroy();
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  auto second = seven().release();
  ASSERT_EQ(second.address(), frame);
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  second.destroy();
}

TEST(CoroFramePoolDeathTest, ResumingADestroyedCoroutineTripsAsan) {
  EXPECT_DEATH(
      {
        auto handle = seven().release();
        handle.destroy();
        handle.resume();  // reads the pooled, poisoned frame
      },
      "use-after-poison");
}

#else

TEST(CoroFramePool, FreeFrameIsPoisonedUntilReused) {
  GTEST_SKIP() << "frame poisoning is only compiled in under AddressSanitizer";
}

TEST(CoroFramePoolDeathTest, ResumingADestroyedCoroutineTripsAsan) {
  GTEST_SKIP() << "frame poisoning is only compiled in under AddressSanitizer";
}

#endif

}  // namespace
}  // namespace dyntrace::sim
