// The simulated cluster: engine(s) + machine spec + deterministic noise.
//
// A Cluster owns no processes itself; the proc layer places SimProcesses on
// nodes via place_block() and charges communication time via
// message_delay().
//
// Sharding: a Cluster built over a sim::ParallelEngine maps every node,
// whole, to a home shard via shard_for()/engine_for_node().  The default
// partition is node modulo shard count; partition_nodes() re-partitions the
// active node span into contiguous blocks so neighbouring nodes (which
// exchange the bulk of block-placed rank traffic) share a shard.  A node
// never spans two shards, so every cross-shard message crosses nodes and
// the group runs under one lookahead: the minimum possible cross-node delay
// after worst-case jitter.  (Intra-node traffic -- OpenMP threads, DPCL
// daemons calling same-node processes directly -- stays shard-local.)
// Latency jitter is a stateless hash of (seed, message identity) rather than
// a shared RNG stream, so the delay of a message does not depend on the
// order other shards draw noise.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "machine/spec.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"

namespace dyntrace::fault {
class FaultInjector;
}  // namespace dyntrace::fault

namespace dyntrace::machine {

class Cluster {
 public:
  struct Placement {
    int node = 0;
    int cpu = 0;
  };

  /// One job's footprint on the machine (multi-job runs; DESIGN.md §15).
  /// Jobs may share physical nodes -- each takes a disjoint CPU range --
  /// and every node's tenant count feeds the contention model below.
  struct JobSpan {
    std::string name;
    int first_node = 0;
    int node_count = 0;
    int first_cpu = 0;   ///< first CPU the job occupies on each of its nodes
    int cpus = 0;        ///< CPUs occupied per node (0 = unknown/whole node)
  };

  Cluster(sim::Engine& engine, MachineSpec spec, std::uint64_t noise_seed = 0x0dd5eed);

  /// Shard-aware cluster: nodes map onto the group's shards and the
  /// machine-derived lookahead is installed on the group.
  Cluster(sim::ParallelEngine& group, MachineSpec spec,
          std::uint64_t noise_seed = 0x0dd5eed);

  /// Register a job's node span (setup time, before the engines run).  Each
  /// registration raises the tenant count of the covered nodes; once any
  /// node carries more than one tenant, messages touching it pay the
  /// MachineSpec::tenancy_factor contention surcharge.  Runs that never
  /// register a job (every single-job Launch) are bit-identical to builds
  /// without this feature.
  void register_job(JobSpan span);
  const std::vector<JobSpan>& jobs() const { return jobs_; }

  /// Number of jobs whose spans cover `node` (0 when no jobs registered).
  int node_tenants(int node) const;

  /// The coordinator engine (shard 0 in a sharded cluster).  Setup code and
  /// single-shard runs use this; simulated processes use engine_for_node().
  sim::Engine& engine() { return *coordinator_; }

  /// The home engine of the given node.  All processes on one node share a
  /// shard, so intra-node communication is always shard-local.
  sim::Engine& engine_for_node(int node);

  /// Shard owning the given node under the current partition (0 for a
  /// single-engine cluster).
  int shard_for(int node) const;

  /// Re-partition: the first `nodes_in_use` nodes (the span placement
  /// actually touched, plus the tool node) are divided into contiguous
  /// blocks across the group's shards, so neighbour-heavy rank traffic
  /// stays shard-local; nodes above the span fall back to round-robin.
  /// With more shards than active nodes each active node gets its own shard
  /// and the surplus shards idle.  Must be called before processes bind
  /// their engines.
  void partition_nodes(int nodes_in_use);

  /// The owning shard group, or null for a classic single-engine cluster.
  sim::ParallelEngine* engine_group() { return group_; }

  const MachineSpec& spec() const { return spec_; }

  /// Install a fault injector (optional; not owned).  When present, the
  /// control-plane layers switch to their fault-tolerant code paths; when
  /// absent (the default) every layer runs its legacy path bit-identically.
  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Block placement: consecutive units fill a node's CPUs, then spill to
  /// the next node (the POE default).  Each unit occupies `cpus_per_unit`
  /// consecutive CPUs (an OpenMP process occupies one CPU per thread).
  /// `first_cpu` offsets every unit's CPU range so that jobs sharing
  /// physical nodes occupy disjoint CPUs (multi-job runs; 0 for the whole
  /// node).  Throws dyntrace::Error if the machine is too small.
  std::vector<Placement> place_block(int units, int cpus_per_unit,
                                     int first_cpu = 0) const;

  /// One-way delay for a message of `bytes` between nodes, with
  /// deterministic jitter applied (models OS noise / switch contention and
  /// the "differing delays" of DPCL daemon contact the paper discusses).
  /// `now` is the *sender's* virtual send time; it salts the jitter so that
  /// repeated sends over one path draw fresh noise, without any state
  /// shared between shards.
  sim::TimeNs message_delay(int src_node, int dst_node, std::int64_t bytes,
                            sim::TimeNs now);

  /// Apply the cluster's jitter model to any base latency.  The same
  /// (seed, salt) always produces the same draw; vary the salt per use.
  sim::TimeNs jittered(sim::TimeNs base, std::uint64_t salt) const;

  /// A lower bound on every possible cross-node message_delay() result:
  /// the zero-byte transfer time scaled by the worst-case downward jitter,
  /// minus one ns of slack.  This is the shard group's lookahead.
  sim::TimeNs min_cross_node_delay() const;

  /// Messages accounted so far (for tests and trace statistics).  Counters
  /// are atomic: shards charge messages concurrently.
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

 private:
  sim::Engine* coordinator_;
  sim::ParallelEngine* group_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  MachineSpec spec_;
  std::uint64_t noise_seed_;
  /// Current node -> shard partition (sharded clusters only).
  std::vector<int> node_shard_;
  /// Registered jobs and the per-node tenant counts they imply.  Written
  /// only at setup time (register_job), read-only while engines run, so the
  /// contention surcharge is a pure function of message identity.
  std::vector<JobSpan> jobs_;
  std::vector<int> tenants_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace dyntrace::machine
