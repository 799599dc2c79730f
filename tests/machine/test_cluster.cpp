#include "machine/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/parallel_engine.hpp"
#include "support/common.hpp"

namespace dyntrace::machine {
namespace {

TEST(Cluster, BlockPlacementFillsNodes) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  const auto placement = cluster.place_block(20, 1);
  ASSERT_EQ(placement.size(), 20u);
  // 8 cpus per node: ranks 0-7 on node 0, 8-15 on node 1, 16-19 on node 2.
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[7].node, 0);
  EXPECT_EQ(placement[7].cpu, 7);
  EXPECT_EQ(placement[8].node, 1);
  EXPECT_EQ(placement[8].cpu, 0);
  EXPECT_EQ(placement[19].node, 2);
  EXPECT_EQ(placement[19].cpu, 3);
}

TEST(Cluster, PlacementOfMultiCpuUnits) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  // An 8-thread OpenMP process occupies a whole node.
  const auto placement = cluster.place_block(1, 8);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[0].cpu, 0);
  // Two 4-thread units share a node.
  const auto two = cluster.place_block(2, 4);
  EXPECT_EQ(two[0].node, 0);
  EXPECT_EQ(two[1].node, 0);
  EXPECT_EQ(two[1].cpu, 4);
}

TEST(Cluster, PlacementRejectsOversizedRequests) {
  sim::Engine engine;
  Cluster cluster(engine, ia32_linux_cluster());  // 16 nodes x 1 cpu
  EXPECT_THROW(cluster.place_block(17, 1), Error);
  EXPECT_THROW(cluster.place_block(1, 2), Error);
  EXPECT_NO_THROW(cluster.place_block(16, 1));
}

TEST(Cluster, PlacementHonoursACpuOffset) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());  // 8 cpus per node
  // A job whose per-node slice starts at CPU 4 gets 4 one-cpu slots per
  // node: ranks 0-3 on node 0 cpus 4-7, ranks 4-7 on node 1.
  const auto placement = cluster.place_block(8, 1, /*first_cpu=*/4);
  ASSERT_EQ(placement.size(), 8u);
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[0].cpu, 4);
  EXPECT_EQ(placement[3].node, 0);
  EXPECT_EQ(placement[3].cpu, 7);
  EXPECT_EQ(placement[4].node, 1);
  EXPECT_EQ(placement[4].cpu, 4);
  // An offset leaving no room for one unit is rejected.
  EXPECT_THROW(cluster.place_block(1, 8, /*first_cpu=*/4), Error);
}

TEST(Cluster, RegisteredJobsCountTenantsPerNode) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  EXPECT_EQ(cluster.node_tenants(0), 0);
  cluster.register_job(Cluster::JobSpan{"front", 0, 2, 0, 4});
  cluster.register_job(Cluster::JobSpan{"back", 1, 2, 4, 4});
  EXPECT_EQ(cluster.node_tenants(0), 1);
  EXPECT_EQ(cluster.node_tenants(1), 2);  // both jobs span node 1
  EXPECT_EQ(cluster.node_tenants(2), 1);
  EXPECT_EQ(cluster.node_tenants(3), 0);
  EXPECT_THROW(cluster.register_job(Cluster::JobSpan{"front", 4, 1, 0, 8}), Error);
  EXPECT_THROW(cluster.register_job(Cluster::JobSpan{"huge", 0, 1000, 0, 8}), Error);
}

TEST(Cluster, MultiTenantNodesPaySurcharge) {
  MachineSpec spec = ibm_power3_sp();
  spec.latency_jitter = 0;  // isolate the surcharge
  ASSERT_GT(spec.tenancy_factor, 0.0);
  sim::Engine e1, e2;
  Cluster solo(e1, spec);
  Cluster shared(e2, spec);
  shared.register_job(Cluster::JobSpan{"front", 0, 1, 0, 4});
  shared.register_job(Cluster::JobSpan{"back", 0, 1, 4, 4});
  const sim::TimeNs base = solo.message_delay(0, 1, 4096, 0);
  const sim::TimeNs taxed = shared.message_delay(0, 1, 4096, 0);
  // Two tenants at the default factor 0.35: a 1.35x surcharge.
  EXPECT_EQ(taxed, static_cast<sim::TimeNs>(std::llround(base * 1.35)));
  // Traffic between single-tenant nodes is untouched.
  EXPECT_EQ(shared.message_delay(2, 3, 4096, 0), solo.message_delay(2, 3, 4096, 0));
}

TEST(Cluster, JitterIsBoundedAndDeterministic) {
  sim::Engine e1, e2;
  Cluster a(e1, ibm_power3_sp(), 7);
  Cluster b(e2, ibm_power3_sp(), 7);
  const sim::TimeNs base = sim::microseconds(100);
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const auto ja = a.jittered(base, salt);
    EXPECT_EQ(ja, b.jittered(base, salt));  // same seed + salt, same draw
    EXPECT_GE(ja, static_cast<sim::TimeNs>(base * 0.91));
    EXPECT_LE(ja, static_cast<sim::TimeNs>(base * 1.09));
  }
}

TEST(Cluster, JitterIsStateless) {
  // Unlike a shared RNG stream, a draw does not perturb later draws: the
  // same salt gives the same answer regardless of what happened in between.
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp(), 7);
  const auto first = cluster.jittered(sim::microseconds(100), 42);
  for (std::uint64_t salt = 0; salt < 100; ++salt) {
    cluster.jittered(sim::microseconds(100), salt);
  }
  EXPECT_EQ(cluster.jittered(sim::microseconds(100), 42), first);
}

TEST(Cluster, DifferentSeedsGiveDifferentJitter) {
  sim::Engine e1, e2;
  Cluster a(e1, ibm_power3_sp(), 1);
  Cluster b(e2, ibm_power3_sp(), 2);
  int same = 0;
  for (std::uint64_t salt = 0; salt < 100; ++salt) {
    if (a.jittered(sim::microseconds(100), salt) ==
        b.jittered(sim::microseconds(100), salt)) {
      ++same;
    }
  }
  EXPECT_LT(same, 10);
}

TEST(Cluster, MessageAccounting) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  EXPECT_EQ(cluster.messages_sent(), 0u);
  cluster.message_delay(0, 1, 1000, /*now=*/0);
  cluster.message_delay(1, 2, 500, /*now=*/0);
  EXPECT_EQ(cluster.messages_sent(), 2u);
  EXPECT_EQ(cluster.bytes_sent(), 1500u);
}

TEST(Cluster, MessageDelayVariesWithSendTime) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  // The send time salts the jitter, so resends over one path draw fresh
  // noise -- and two clusters agree without sharing any stream state.
  int distinct = 0;
  const auto first = cluster.message_delay(0, 1, 1000, 0);
  for (sim::TimeNs now = 1; now <= 100; ++now) {
    if (cluster.message_delay(0, 1, 1000, now) != first) ++distinct;
  }
  EXPECT_GT(distinct, 50);
}

TEST(Cluster, ZeroJitterSpecPassesThrough) {
  sim::Engine engine;
  MachineSpec spec = ibm_power3_sp();
  spec.latency_jitter = 0.0;
  Cluster cluster(engine, spec);
  EXPECT_EQ(cluster.jittered(12345, 0), 12345);
}

TEST(Cluster, ShardedClusterMapsNodesToShards) {
  sim::ParallelEngine group(4);
  Cluster cluster(group, ibm_power3_sp());
  EXPECT_EQ(&cluster.engine(), &group.shard(0));
  EXPECT_EQ(cluster.engine_group(), &group);
  for (int node = 0; node < 16; ++node) {
    EXPECT_EQ(&cluster.engine_for_node(node), &group.shard(node % 4));
  }
  // Nodes on the same shard differ by a multiple of the shard count, so any
  // cross-shard pair is cross-node: the machine lookahead is valid.
  EXPECT_GT(group.lookahead(), 0);
}

TEST(Cluster, LookaheadBoundsEveryCrossNodeDelay) {
  sim::ParallelEngine group(2);
  Cluster cluster(group, ibm_power3_sp());
  const auto lookahead = group.lookahead();
  for (sim::TimeNs now = 0; now < 2000; ++now) {
    EXPECT_GT(cluster.message_delay(0, 1, 0, now), lookahead);
  }
}

TEST(Cluster, SingleEngineClusterHasNoGroup) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  EXPECT_EQ(cluster.engine_group(), nullptr);
  EXPECT_EQ(&cluster.engine_for_node(5), &engine);
}

TEST(Cluster, BlockPartitionKeepsNeighbourNodesTogether) {
  sim::ParallelEngine group(8);
  Cluster cluster(group, ibm_power3_sp());
  // 9 active nodes (8 app + 1 tool) over 8 shards: contiguous blocks, so
  // adjacent nodes share a shard wherever possible and the mapping is
  // monotone; the tool node ends up alone on the last shard.
  cluster.partition_nodes(9);
  EXPECT_EQ(cluster.shard_for(0), cluster.shard_for(1));
  int prev = 0;
  for (int node = 0; node < 9; ++node) {
    const int shard = cluster.shard_for(node);
    EXPECT_GE(shard, prev);
    EXPECT_LE(shard - prev, 1);
    prev = shard;
  }
  EXPECT_EQ(cluster.shard_for(8), 7);
  // Every shard pair is cross-node, so the group runs under the cross-node
  // bound.
  EXPECT_EQ(group.lookahead(), cluster.min_cross_node_delay());
}

TEST(Cluster, PartitionWithMoreShardsThanNodesIdlesTheSurplus) {
  sim::ParallelEngine group(8);
  Cluster cluster(group, ibm_power3_sp());
  cluster.partition_nodes(3);  // one node per shard
  EXPECT_EQ(cluster.shard_for(0), 0);
  EXPECT_EQ(cluster.shard_for(1), 1);
  EXPECT_EQ(cluster.shard_for(2), 2);
  EXPECT_EQ(&cluster.engine_for_node(2), &group.shard(2));
}

TEST(Cluster, ZeroIntraLatencyMachinePartitionsByNode) {
  MachineSpec spec = ibm_power3_sp();
  spec.intra_latency = 0;
  sim::ParallelEngine group(4);
  Cluster cluster(group, spec);
  // Intra-node traffic never crosses shards, so a zero intra-node latency
  // leaves node-granular partitions and the cross-node lookahead usable.
  EXPECT_NO_THROW(cluster.partition_nodes(2));
  EXPECT_GT(group.lookahead(), 0);
}

}  // namespace
}  // namespace dyntrace::machine
