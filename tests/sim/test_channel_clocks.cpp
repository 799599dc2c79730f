// Adversarial coverage for the per-shard window bounds: window fusion under
// one lookahead, self-reflection through idle siblings, idle surplus
// shards, and a randomized 512-actor digest sweep.  Every determinism case
// is gated on bit-identity with the 1-shard run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "window_counts.hpp"

namespace dyntrace::sim {
namespace {

struct Record {
  TimeNs time;
  int actor;
  int step;
  bool operator==(const Record& other) const {
    return time == other.time && actor == other.actor && step == other.step;
  }
};

using Logs = std::vector<std::vector<Record>>;

TEST(ChannelClocks, BusyPairFusesWindowsUnderUniformLookahead) {
  // Two busy shards tick at different rates while the third's only event is
  // far off.  Whenever one busy shard is strictly ahead, its bound is
  // min(next + 2L, runner-up + L): past the classic global window
  // (min_next + L), so the round counts as fused.
  ParallelEngine group(ParallelEngine::Options{3, 10});
  std::vector<int> ticks(2, 0);
  auto busy = [&](int actor) -> Coro<void> {
    for (int step = 0; step < 50; ++step) {
      co_await group.shard(actor).sleep(7 + actor);
      ++ticks[static_cast<std::size_t>(actor)];
    }
  };
  auto lone = [&]() -> Coro<void> { co_await group.shard(2).sleep(100000); };
  group.shard(0).spawn(busy(0), "busy0");
  group.shard(1).spawn(busy(1), "busy1");
  group.shard(2).spawn(lone(), "lone");
  group.run();
  EXPECT_EQ(ticks, (std::vector<int>{50, 50}));
  EXPECT_GT(group.fused_windows(), 0u);
}

/// Reflection through an otherwise-idle sibling: shard 1 never has its own
/// events, but bounces shard 0's ping straight back.  Shard 0's bound must
/// respect its own round trip (next + 2L) or the reply lands in its executed
/// past.
Logs run_reflection(int shards) {
  ParallelEngine group(ParallelEngine::Options{shards, 10});
  Logs logs(1);
  auto main = [&]() -> Coro<void> {
    // Busy events at multiples of 3; the reflected reply lands at 23.
    Engine& home = group.shard(0);
    Engine& mirror = group.shard(shards > 1 ? 1 : 0);
    for (int step = 0; step < 40; ++step) {
      co_await home.sleep(3);
      logs[0].push_back(Record{home.now(), 0, step});
      if (step == 0) {
        mirror.deliver_at(home.now() + 10, [&home, &mirror, &logs] {
          home.deliver_at(mirror.now() + 10, [&home, &logs] {
            logs[0].push_back(Record{home.now(), 0, 999});
          });
        });
      }
    }
  };
  group.shard(0).spawn(main(), "pinger");
  group.run();
  return logs;
}

TEST(ChannelClocks, ReflectionThroughIdleSiblingStaysBitIdentical) {
  const Logs seq = run_reflection(1);
  const Logs par = run_reflection(2);
  EXPECT_EQ(seq, par);
  // The reply really did come back mid-run: ping sent at t=3, bounced at 13,
  // received at 23 -- inside the 120 ns the busy loop spans.
  bool found = false;
  for (const Record& r : par[0]) found = found || (r.step == 999 && r.time == 23);
  EXPECT_TRUE(found);
}

/// Randomized (but seeded) actor mesh: every actor sleeps a pseudo-random
/// time and fires at a pseudo-random peer, with delivery latencies >= the
/// 50 ns lookahead.  Returns an FNV-1a digest of every
/// actor's receive log, folded in actor order; `counts` (if set) receives
/// the run's window schedule.
std::uint64_t run_random_mesh_digest(int actors, int shards, int steps,
                                     WindowCounts* counts = nullptr) {
  ParallelEngine group(ParallelEngine::Options{shards, 50});
  Logs logs(static_cast<std::size_t>(actors));
  auto shard_of = [&](int actor) { return actor * shards / actors; };
  auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  };
  auto actor_main = [&](int actor) -> Coro<void> {
    Engine& home = group.shard(shard_of(actor));
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t h =
          mix(0x512u ^ (static_cast<std::uint64_t>(actor) << 20) ^
              static_cast<std::uint64_t>(step));
      co_await home.sleep(static_cast<TimeNs>(h % 37) + 1);
      const int dst = static_cast<int>(mix(h) % static_cast<std::uint64_t>(actors));
      Engine& peer = group.shard(shard_of(dst));
      const TimeNs at = home.now() + 50 + static_cast<TimeNs>(mix(h ^ 7) % 400);
      peer.deliver_at(at, [&logs, &peer, dst, actor, step] {
        logs[static_cast<std::size_t>(dst)].push_back(Record{peer.now(), actor, step});
      });
    }
  };
  for (int actor = 0; actor < actors; ++actor) {
    group.shard(shard_of(actor))
        .spawn(actor_main(actor), "mesh.actor" + std::to_string(actor));
  }
  group.run();
  if (counts != nullptr) *counts = window_counts(group);
  // Random senders can hit one receiver at the same integer nanosecond; the
  // merge then orders by (src_shard, src_seq), a different (equally
  // deterministic) interleave than the sequential schedule order.  Sorting
  // each receive log canonicalises away exactly that and nothing else --
  // any lost, duplicated, or retimed record still changes the digest.
  std::uint64_t digest = 1469598103934665603ULL;
  auto fold = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 1099511628211ULL;
  };
  for (auto& log : logs) {
    std::sort(log.begin(), log.end(), [](const Record& a, const Record& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.actor != b.actor) return a.actor < b.actor;
      return a.step < b.step;
    });
    for (const Record& r : log) {
      fold(static_cast<std::uint64_t>(r.time));
      fold(static_cast<std::uint64_t>(r.actor));
      fold(static_cast<std::uint64_t>(r.step));
    }
  }
  return digest;
}

TEST(ChannelClocks, MoreShardsThanActorsStaysBitIdentical) {
  // 3 actors on 8 shards: five shards never host an event and must neither
  // stall the active ones nor perturb the merge order.
  EXPECT_EQ(run_random_mesh_digest(3, 1, 40), run_random_mesh_digest(3, 8, 40));
}

TEST(ChannelClocks, Random512ActorMeshDigestSweepAcrossSimThreads) {
  const std::uint64_t seq = run_random_mesh_digest(512, 1, 6);
  for (const int shards : {2, 4, 8}) {
    EXPECT_EQ(seq, run_random_mesh_digest(512, shards, 6)) << "shards=" << shards;
  }
}

TEST(WindowGolden, Random512ActorMeshScheduleIsPinned) {
  struct Case {
    int shards;
    WindowCounts pin;
  };
  const Case cases[] = {{2, {13, 2, 1521}}, {4, {13, 1, 2307}}, {8, {13, 1, 2698}}};
  for (const Case& c : cases) {
    WindowCounts got;
    run_random_mesh_digest(512, c.shards, 6, &got);
    EXPECT_EQ(c.pin, got) << "shards=" << c.shards;
  }
}

TEST(ChannelClocks, ChannelDeliveriesAreCountedPerChannel) {
  ParallelEngine group(ParallelEngine::Options{2, 10});
  auto pinger = [&](int from) -> Coro<void> {
    Engine& home = group.shard(from);
    Engine& peer = group.shard(1 - from);
    for (int step = 0; step < 5; ++step) {
      co_await home.sleep(3);
      peer.deliver_at(home.now() + 20, [] {});
    }
  };
  group.shard(0).spawn(pinger(0), "ping0");
  group.shard(1).spawn(pinger(1), "ping1");
  group.run();
  EXPECT_EQ(group.channel_deliveries(0, 1), 5u);
  EXPECT_EQ(group.channel_deliveries(1, 0), 5u);
  EXPECT_EQ(group.channel_deliveries(0, 0), 0u);
}

}  // namespace
}  // namespace dyntrace::sim
