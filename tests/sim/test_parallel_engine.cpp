// Conservative parallel engine: window protocol, cross-shard delivery,
// determinism across shard counts, and failure/deadlock reporting.
#include "sim/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sync.hpp"
#include "window_counts.hpp"

namespace dyntrace::sim {
namespace {

constexpr TimeNs kLookahead = 10;

/// Deterministic per-(node, step) pseudo delay, independent of sharding.
TimeNs step_delay(int node, int step) {
  const std::uint64_t h = (static_cast<std::uint64_t>(node) * 2654435761u) ^
                          (static_cast<std::uint64_t>(step) * 40503u);
  return static_cast<TimeNs>(h % 97) + 1;
}

/// One record per event a node observes, on the node's home shard only --
/// so each log is written single-threaded and comparable bit-for-bit.
struct Record {
  TimeNs time;
  int from;
  int step;
  bool operator==(const Record& other) const {
    return time == other.time && from == other.from && step == other.step;
  }
};

/// Run a ring workload: `nodes` logical nodes on `shards` shards (node %
/// shards), each sleeping a pseudo-random delay per step and then sending a
/// cross-shard message to its successor with latency >= lookahead.
/// `counts` (if set) receives the run's window schedule.
std::vector<std::vector<Record>> run_ring(int nodes, int shards, int steps,
                                          WindowCounts* counts = nullptr) {
  ParallelEngine group(ParallelEngine::Options{shards, kLookahead});
  std::vector<std::vector<Record>> logs(static_cast<std::size_t>(nodes));

  auto node_main = [&](int node) -> Coro<void> {
    Engine& home = group.shard(node % shards);
    for (int step = 0; step < steps; ++step) {
      co_await home.sleep(step_delay(node, step));
      logs[static_cast<std::size_t>(node)].push_back(Record{home.now(), node, step});
      const int dst = (node + 1) % nodes;
      Engine& peer = group.shard(dst % shards);
      // Unique per (node, step) so no two deliveries tie: equal-timestamp
      // deliveries from *different* senders are ordered by (src_shard,
      // src_seq), which is a different (equally deterministic) interleave
      // than the sequential schedule order.  The machine model's per-message
      // jitter makes such ns-exact ties measure-zero in the real stack; see
      // DESIGN.md §8.  Always clears now + lookahead: now <= 97 * (step+1).
      const TimeNs at = kLookahead + (step + 1) * 1000 + node;
      peer.deliver_at(at, [&logs, &peer, node, dst, step] {
        logs[static_cast<std::size_t>(dst)].push_back(Record{peer.now(), node, step});
      });
    }
  };
  for (int node = 0; node < nodes; ++node) {
    group.shard(node % shards)
        .spawn(node_main(node), "ring.node" + std::to_string(node));
  }
  group.run();
  if (counts != nullptr) *counts = window_counts(group);
  return logs;
}

TEST(ParallelEngine, SingleShardMatchesSequentialEngine) {
  const auto seq = run_ring(6, 1, 40);
  const auto par = run_ring(6, 2, 40);
  EXPECT_EQ(seq, par);
}

TEST(ParallelEngine, RingIsBitIdenticalAcrossShardCounts) {
  const auto one = run_ring(8, 1, 50);
  for (const int shards : {2, 3, 4, 8}) {
    EXPECT_EQ(one, run_ring(8, shards, 50)) << "shards=" << shards;
  }
}

TEST(WindowGolden, RingScheduleIsPinned) {
  struct Case {
    int shards;
    WindowCounts pin;
  };
  const Case cases[] = {{2, {193, 188, 400}}, {4, {207, 200, 400}}};
  for (const Case& c : cases) {
    WindowCounts got;
    run_ring(8, c.shards, 50, &got);
    EXPECT_EQ(c.pin, got) << "shards=" << c.shards;
  }
}

TEST(ParallelEngine, RepeatedRunsAreIdentical) {
  const auto a = run_ring(5, 4, 30);
  const auto b = run_ring(5, 4, 30);
  EXPECT_EQ(a, b);
}

TEST(ParallelEngine, SameShardTiesDeliverInSendOrder) {
  // Two deliveries from one shard to a sibling at the *same* timestamp must
  // land in send order -- the (at, src_shard, src_seq) merge key.
  ParallelEngine group(ParallelEngine::Options{2, kLookahead});
  std::vector<int> order;
  auto sender = [&]() -> Coro<void> {
    Engine& home = group.shard(0);
    Engine& peer = group.shard(1);
    co_await home.sleep(1);
    peer.deliver_at(100, [&order] { order.push_back(1); });
    peer.deliver_at(100, [&order] { order.push_back(2); });
  };
  auto keep_alive = [&]() -> Coro<void> {
    co_await group.shard(1).sleep(200);
  };
  group.shard(0).spawn(sender(), "sender");
  group.shard(1).spawn(keep_alive(), "receiver");
  group.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelEngine, WindowsAdvanceAllShardClocks) {
  ParallelEngine group(ParallelEngine::Options{2, kLookahead});
  auto busy = [&](int shard) -> Coro<void> {
    for (int i = 0; i < 20; ++i) co_await group.shard(shard).sleep(7);
  };
  group.shard(0).spawn(busy(0), "busy0");
  group.shard(1).spawn(busy(1), "busy1");
  group.run();
  EXPECT_GE(group.windows(), 1u);
  EXPECT_EQ(group.shard(0).now(), 140);
  EXPECT_EQ(group.shard(1).now(), 140);
  EXPECT_EQ(group.processes_alive(), 0u);
}

TEST(ParallelEngine, MultiShardRunRequiresLookahead) {
  ParallelEngine group(2);  // no lookahead installed
  auto tick = [&]() -> Coro<void> { co_await group.shard(0).sleep(1); };
  group.shard(0).spawn(tick(), "tick");
  EXPECT_THROW(group.run(), Error);
}

TEST(ParallelEngine, DeadlockNamesBlockedProcessesAcrossShards) {
  ParallelEngine group(ParallelEngine::Options{2, kLookahead});
  Trigger never_a(group.shard(0));
  Trigger never_b(group.shard(1));
  auto wait_on = [](Engine& engine, Trigger& trigger) -> Coro<void> {
    co_await engine.sleep(5);
    co_await trigger.wait();
  };
  group.shard(0).spawn(wait_on(group.shard(0), never_a), "stuck.zeta");
  group.shard(1).spawn(wait_on(group.shard(1), never_b), "stuck.alpha");
  try {
    group.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    // Both names present, sorted across shards for a stable report.
    const auto alpha = msg.find("stuck.alpha");
    const auto zeta = msg.find("stuck.zeta");
    ASSERT_NE(alpha, std::string::npos) << msg;
    ASSERT_NE(zeta, std::string::npos) << msg;
    EXPECT_LT(alpha, zeta) << msg;
    EXPECT_NE(msg.find("2 process(es)"), std::string::npos) << msg;
  }
}

TEST(ParallelEngine, FailureRethrownIsTheEarliestInVirtualTime) {
  ParallelEngine group(ParallelEngine::Options{2, kLookahead});
  auto fail_at = [&](int shard, TimeNs when, const char* what) -> Coro<void> {
    co_await group.shard(shard).sleep(when);
    throw Error(what);
  };
  // The later (virtual-time) failure sits on the lower shard index.
  group.shard(0).spawn(fail_at(0, 50, "late failure"), "late");
  group.shard(1).spawn(fail_at(1, 20, "early failure"), "early");
  try {
    group.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "early failure");
  }
}

TEST(ParallelEngine, DeadlineMidWindowDrainsInFlightDeliveriesAndResumes) {
  // Regression: stopping at a deadline while cross-shard deliveries posted
  // by the final window are still in sibling inboxes.  The stop point must
  // drain them into their home queues (an explicit checkpoint), so chopping
  // a run into arbitrary deadline slices is bit-identical to one long run.
  const auto uninterrupted = run_ring(6, 3, 40);

  constexpr int kNodes = 6, kShards = 3, kSteps = 40;
  ParallelEngine group(ParallelEngine::Options{kShards, kLookahead});
  std::vector<std::vector<Record>> logs(kNodes);
  auto node_main = [&](int node) -> Coro<void> {
    Engine& home = group.shard(node % kShards);
    for (int step = 0; step < kSteps; ++step) {
      co_await home.sleep(step_delay(node, step));
      logs[static_cast<std::size_t>(node)].push_back(Record{home.now(), node, step});
      const int dst = (node + 1) % kNodes;
      Engine& peer = group.shard(dst % kShards);
      const TimeNs at = kLookahead + (step + 1) * 1000 + node;
      peer.deliver_at(at, [&logs, &peer, node, dst, step] {
        logs[static_cast<std::size_t>(dst)].push_back(Record{peer.now(), node, step});
      });
    }
  };
  for (int node = 0; node < kNodes; ++node) {
    group.shard(node % kShards).spawn(node_main(node), "ring.node" + std::to_string(node));
  }
  // Slices prime with the step cadence (1000) so deadlines land mid-window
  // with sends in flight; keep resuming until the ring finishes.
  TimeNs deadline = 137;
  while (group.processes_alive() > 0) {
    group.run(deadline);
    for (int shard = 0; shard < kShards; ++shard) {
      EXPECT_LE(group.shard(shard).now(), deadline + 1);
    }
    deadline += 137;
  }
  group.run();  // the remaining deliveries past the last deadline
  EXPECT_EQ(uninterrupted, logs);
}

TEST(ParallelEngine, DeadlineStopsEveryShardAtTheDeadline) {
  ParallelEngine group(ParallelEngine::Options{2, kLookahead});
  auto busy = [&](int shard) -> Coro<void> {
    for (int i = 0; i < 100; ++i) co_await group.shard(shard).sleep(10);
  };
  group.shard(0).spawn(busy(0), "busy0");
  group.shard(1).spawn(busy(1), "busy1");
  group.run(/*deadline=*/500);
  EXPECT_LE(group.shard(0).now(), 501);
  EXPECT_LE(group.shard(1).now(), 501);
  EXPECT_GT(group.processes_alive(), 0u);  // stopped mid-flight, not done
  group.run();  // resume to completion
  EXPECT_EQ(group.processes_alive(), 0u);
}

}  // namespace
}  // namespace dyntrace::sim
