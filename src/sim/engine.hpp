// The discrete-event simulation engine.
//
// The engine owns virtual time and the pending-event set, and drives root
// coroutine processes spawned with spawn().  Determinism: events at equal
// timestamps fire in scheduling order, and nothing in the engine consults
// wall-clock time or unordered iteration.
//
// Error model: an exception escaping a root process stops the run and is
// rethrown from run().  If all events drain while non-daemon processes are
// still blocked, run() throws DeadlockError naming the stuck processes.
//
// Sharding: an Engine can be one shard of a ParallelEngine.  Every
// simulated process has a home engine and all of its events execute there;
// communication *between* engines goes through deliver_at(), which routes
// to a mutex-protected foreign inbox while a parallel run is in progress
// and is merged deterministically at window boundaries (see
// sim/parallel_engine.hpp).  A standalone Engine is the single-shard
// degenerate case and pays none of the synchronisation.
#pragma once

#include <coroutine>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/common.hpp"

namespace dyntrace::sim {

class ParallelEngine;

/// Thrown by Engine::run() when non-daemon processes remain blocked with no
/// pending events.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(std::string msg) : Error(std::move(msg)) {}
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- time and events -----------------------------------------------------

  TimeNs now() const { return now_; }

  EventId schedule_at(TimeNs at, EventQueue::Callback cb);
  EventId schedule_after(TimeNs delay, EventQueue::Callback cb);
  bool cancel(EventId id) {
    assert_local_context();
    return queue_.cancel(id);
  }

  /// Schedule `cb` on *this* engine at absolute time `at`, callable from any
  /// engine.  On the owning engine (or outside a parallel run) this is a
  /// plain schedule; from a sibling shard mid-run the event is queued in a
  /// thread-safe inbox and merged at the next window boundary, ordered by
  /// (at, sender shard, sender sequence).  Cross-shard deliveries must obey
  /// the conservative bound: `at` must be >= sender now + the group's
  /// lookahead (checked at send, and against the receiver clock when the
  /// inbox drains).
  void deliver_at(TimeNs at, EventQueue::Callback cb);

  /// Resume a coroutine at the current time (after already-scheduled events
  /// for this timestamp).  All synchronisation primitives wake waiters this
  /// way, which rules out re-entrant resumption.
  void post(std::coroutine_handle<> h);

  /// The engine whose event is currently executing on this thread (null
  /// outside any event callback).  Lets cross-shard senders identify their
  /// home shard without plumbing an Engine& through every call.
  static Engine* current() { return tls_current_; }

  /// Shard index within the owning ParallelEngine (0 for a standalone
  /// engine).
  int shard_id() const { return shard_; }
  ParallelEngine* group() const { return group_; }

  // --- processes -----------------------------------------------------------

  struct SpawnOptions {
    /// Daemons are excluded from deadlock detection and are torn down when
    /// the engine is destroyed (model: DPCL daemons blocking on requests).
    bool daemon = false;
  };

  /// Start a root process.  The body begins executing at the current
  /// simulation time, after events already scheduled for this timestamp.
  void spawn(Coro<void> body, std::string name, SpawnOptions options);
  void spawn(Coro<void> body, std::string name) {
    spawn(std::move(body), std::move(name), SpawnOptions{});
  }

  std::size_t processes_alive() const { return alive_; }
  std::size_t daemons_alive() const { return daemons_alive_; }

  /// Names of live non-daemon processes, sorted (deadlock reporting).
  std::vector<std::string> blocked_process_names() const;

  // --- running -------------------------------------------------------------

  /// Execute a single event.  Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains, a process fails, or `deadline` (if
  /// non-negative) is reached.  Rethrows the first process failure.  Throws
  /// DeadlockError if non-daemon processes remain after the queue drains.
  void run(TimeNs deadline = -1);

  /// Like run(), but blocked processes at the end are not an error.
  /// Returns the number of live non-daemon processes.
  std::size_t run_until_blocked(TimeNs deadline = -1);

  /// co_await engine.sleep(d): suspend the calling coroutine for d >= 0
  /// virtual nanoseconds.
  auto sleep(TimeNs duration) {
    DT_ASSERT(duration >= 0, "cannot sleep a negative duration");
    struct Awaiter {
      Engine& engine;
      TimeNs duration;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule_after(duration, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, duration};
  }

  /// co_await engine.yield(): reschedule after other events at this time.
  auto yield() { return sleep(0); }

  std::uint64_t events_executed() const { return events_executed_; }

 private:
  friend class ParallelEngine;

  struct RootDriver;  // detached driver coroutine for a root process

  /// An event queued by a sibling shard, merged at window boundaries.
  /// (src_shard, src_seq) breaks same-timestamp ties deterministically.
  struct ForeignEvent {
    TimeNs at = 0;
    int src_shard = 0;
    std::uint64_t src_seq = 0;
    EventQueue::Callback cb;
  };

  RootDriver drive_root(Coro<void> body, std::uint64_t root_id, bool daemon);
  void record_failure(const std::string& name, std::exception_ptr error);
  void finish_root(std::uint64_t id, bool daemon);

  /// Execute every event strictly before `bound` (one conservative window).
  /// Never throws: failures are recorded for the coordinator.
  void run_window(TimeNs bound);

  /// Move the foreign inbox into the local queue, ordered by
  /// (at, src_shard, src_seq).  Coordinator-only, between windows.
  void drain_inbox();

  /// Engine state may only be touched from its own events (or from outside
  /// any engine, e.g. test or coordinator code between runs).
  void assert_local_context() const {
    DT_ASSERT(tls_current_ == nullptr || tls_current_ == this,
              "cross-engine call into shard ", shard_,
              " (use deliver_at for cross-shard communication)");
  }

  EventQueue queue_;
  TimeNs now_ = 0;
  std::size_t alive_ = 0;
  std::size_t daemons_alive_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t next_root_id_ = 0;

  struct RootInfo {
    std::coroutine_handle<> handle;
    std::string name;
    bool daemon = false;
  };
  std::unordered_map<std::uint64_t, RootInfo> roots_;

  std::exception_ptr failure_;
  std::string failure_name_;
  TimeNs failure_time_ = 0;

  // --- sharding ------------------------------------------------------------
  ParallelEngine* group_ = nullptr;  ///< owning group; null when standalone
  int shard_ = 0;
  std::uint64_t cross_seq_ = 0;  ///< ordinal of this shard's outgoing deliveries
  std::mutex inbox_mutex_;
  std::vector<ForeignEvent> inbox_;
  /// Cross-shard deliveries drained into this shard, indexed by sender
  /// shard (sized lazily; coordinator-only, like drain_inbox).
  std::vector<std::uint64_t> channel_from_;

  inline static thread_local Engine* tls_current_ = nullptr;
};

}  // namespace dyntrace::sim
