// Conservative parallel discrete-event simulation (YAWNS with per-shard bounds).
//
// A ParallelEngine owns N shard Engines and a worker-thread pool.  Each
// simulated process has a home shard (the proc layer maps node -> shard)
// and all of its events execute there; cross-shard communication goes
// through Engine::deliver_at, which enqueues into the receiver's foreign
// inbox mid-window.
//
// Every cross-shard message carries at least one lookahead L > 0 of virtual
// latency (machine::Cluster installs the machine's cross-node floor: every
// shard pair is a pair of distinct nodes).  A message i sends reaches any
// other shard after >= L, and the cheapest way for it to come back to i is
// a reflection through a sibling, >= 2L.  The run loop repeats three steps:
//   1. drain: merge every shard's foreign inbox into its event queue,
//      ordered by the deterministic (time, sender shard, sender seq) key;
//   2. bound: each shard i gets its own window bound
//          B(i) = min(next(i) + 2L, min over k != i of next(k) + L)
//      where next(k) is shard k's next event time (empty queues contribute
//      nothing).  The inner minimum is the second-smallest next() for the
//      shard holding the smallest, and the smallest for every other shard.
//   3. window: every shard with next(i) < B(i) executes its events with
//      t < B(i) concurrently.
// Step 3 is safe: every event shard k executes has t >= next(k), so what it
// sends reaches a sibling no earlier than next(k) + L, and what a sibling
// reflects back to k in a later window no earlier than next(k) + 2L.  Both
// are >= the receiver's bound, so no arrival lands in an executed past.  The
// shard holding the global minimum always has next < B, so every round makes
// progress.  Only a shard holding a strict minimum can run past the classic
// global window min_next + L (its bound is min(min_next + 2L, second + L));
// such a round is a fused window, counted by fused_windows().
// Determinism: shard-local order is the sequential (time, seq) order, and
// cross-shard deliveries are merged by a key independent of thread timing,
// so outputs are bit-identical run to run and thread-count to thread-count.
//
// One shard degenerates to Engine::run() exactly.  See DESIGN.md §8 for the
// protocol and the determinism argument.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace dyntrace::sim {

class ParallelEngine {
 public:
  struct Options {
    /// Number of shard engines (and worker threads when > 1).
    int shards = 1;
    /// Lookahead in virtual ns: a lower bound on the latency of every
    /// cross-shard message.  Must be > 0 before run() when shards > 1
    /// (machine::Cluster installs the machine-derived value).
    TimeNs lookahead = 0;
  };

  explicit ParallelEngine(Options options);
  explicit ParallelEngine(int shards) : ParallelEngine(Options{shards, 0}) {}
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Engine& shard(int index);
  const Engine& shard(int index) const;

  /// The lower bound on every cross-shard message's virtual latency.
  TimeNs lookahead() const { return lookahead_; }
  void set_lookahead(TimeNs lookahead);

  /// True while worker windows may be executing concurrently; deliver_at
  /// uses this to decide between direct scheduling and the inbox.
  bool in_parallel_phase() const {
    return parallel_phase_.load(std::memory_order_acquire);
  }

  /// Run all shards to completion under the conservative window protocol
  /// (or until `deadline`, if non-negative).  Rethrows the earliest process
  /// failure (by virtual time, then shard).  Throws DeadlockError naming
  /// every blocked process across all shards.  With one shard this is
  /// exactly Engine::run().
  void run(TimeNs deadline = -1);

  // --- statistics ----------------------------------------------------------

  std::uint64_t events_executed() const;   ///< summed over shards
  std::size_t processes_alive() const;     ///< summed over shards
  std::uint64_t windows() const { return windows_; }
  /// Coordinator rounds where at least one shard's bound ran past the
  /// classic global window (min_next + lookahead).
  std::uint64_t fused_windows() const { return fused_windows_; }
  /// Cross-shard deliveries drained into shard `dst` from shard `src`.
  std::uint64_t channel_deliveries(int src, int dst) const;

 private:
  void worker_loop(std::size_t shard_index);
  void start_workers();
  void stop_workers();
  /// Run one multi-shard window: shard `active[i]` executes up to
  /// `bounds[active[i]]`.  The coordinator runs active[0] itself.  Returns
  /// true if the completion barrier actually waited on a worker.
  bool dispatch_window(const std::vector<std::size_t>& active,
                       const std::vector<TimeNs>& bounds);
  /// Deadline stop point: drain every inbox, check nothing at or before the
  /// deadline is still pending, and advance every shard clock to it so a
  /// later run() resumes exactly where a sequential run would.
  void checkpoint_at_deadline(TimeNs deadline);
  [[noreturn]] void rethrow_earliest_failure();

  std::vector<std::unique_ptr<Engine>> shards_;
  TimeNs lookahead_ = 0;
  std::atomic<bool> parallel_phase_{false};
  std::uint64_t windows_ = 0;
  std::uint64_t fused_windows_ = 0;

  // Worker pool: one thread per shard, started lazily on the first
  // multi-shard run.  Each worker has a private dispatch slot so a window
  // wakes exactly the shards that have work (the coordinator runs one
  // active shard itself instead of idling); completion is one shared
  // countdown.  On multi-core hosts both sides spin briefly before parking
  // -- windows are microseconds apart and a futex round-trip can cost more
  // than the window's events.
  struct WorkerSlot {
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<std::uint64_t> round{0};  ///< bumped per dispatch to this worker
    std::atomic<bool> stop{false};
    TimeNs bound = 0;  ///< published before `round`, read after it
    /// Wall nanoseconds the worker spent in its last window; published
    /// before the pending_ countdown, read by the coordinator after it.
    std::uint64_t wall_ns = 0;
  };
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::atomic<int> pending_{0};
  bool spin_ = false;  ///< hardware_concurrency > 1, set in the constructor
};

}  // namespace dyntrace::sim
