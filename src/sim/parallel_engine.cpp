#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>

#include "support/log.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::sim {

namespace {

constexpr TimeNs kNoEvent = std::numeric_limits<TimeNs>::max();

/// a + b for event times, saturating at kNoEvent ("never").
constexpr TimeNs sat_add(TimeNs a, TimeNs b) {
  return a >= kNoEvent - b ? kNoEvent : a + b;
}

// Bounded busy-wait before parking on a condition variable: roughly the
// cost of one futex round-trip, so a short window never pays for a full
// sleep/wake cycle.
constexpr int kSpinIters = 4096;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

ParallelEngine::ParallelEngine(Options options) : lookahead_(options.lookahead) {
  DT_EXPECT(options.shards >= 1, "ParallelEngine needs at least one shard, got ",
            options.shards);
  DT_EXPECT(options.lookahead >= 0, "negative lookahead");
  shards_.reserve(static_cast<std::size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    auto engine = std::make_unique<Engine>();
    engine->group_ = this;
    engine->shard_ = i;
    shards_.push_back(std::move(engine));
  }
  spin_ = std::thread::hardware_concurrency() > 1;
}

ParallelEngine::~ParallelEngine() { stop_workers(); }

Engine& ParallelEngine::shard(int index) {
  DT_ASSERT(index >= 0 && index < shard_count(), "shard ", index, " out of range (",
            shard_count(), " shards)");
  return *shards_[static_cast<std::size_t>(index)];
}

const Engine& ParallelEngine::shard(int index) const {
  DT_ASSERT(index >= 0 && index < shard_count(), "shard ", index, " out of range (",
            shard_count(), " shards)");
  return *shards_[static_cast<std::size_t>(index)];
}

void ParallelEngine::set_lookahead(TimeNs lookahead) {
  DT_EXPECT(lookahead >= 0, "negative lookahead");
  lookahead_ = lookahead;
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& engine : shards_) total += engine->events_executed();
  return total;
}

std::size_t ParallelEngine::processes_alive() const {
  std::size_t total = 0;
  for (const auto& engine : shards_) total += engine->processes_alive();
  return total;
}

std::uint64_t ParallelEngine::channel_deliveries(int src, int dst) const {
  DT_ASSERT(src >= 0 && src < shard_count() && dst >= 0 && dst < shard_count(),
            "channel (", src, " -> ", dst, ") out of range (", shard_count(), " shards)");
  const auto& counts = shards_[static_cast<std::size_t>(dst)]->channel_from_;
  const auto s = static_cast<std::size_t>(src);
  return s < counts.size() ? counts[s] : 0;
}

void ParallelEngine::start_workers() {
  if (!workers_.empty()) return;
  slots_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  workers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ParallelEngine::stop_workers() {
  if (workers_.empty()) return;
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->stop.store(true, std::memory_order_release);
  }
  for (auto& slot : slots_) slot->cv.notify_one();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  slots_.clear();
}

void ParallelEngine::worker_loop(std::size_t shard_index) {
  WorkerSlot& slot = *slots_[shard_index];
  std::uint64_t seen = 0;
  while (true) {
    if (spin_) {
      for (int i = 0; i < kSpinIters &&
                      slot.round.load(std::memory_order_acquire) == seen &&
                      !slot.stop.load(std::memory_order_acquire);
           ++i) {
        cpu_pause();
      }
    }
    if (slot.round.load(std::memory_order_acquire) == seen &&
        !slot.stop.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(slot.mutex);
      slot.cv.wait(lock, [&] {
        return slot.stop.load(std::memory_order_acquire) ||
               slot.round.load(std::memory_order_acquire) != seen;
      });
    }
    if (slot.stop.load(std::memory_order_acquire)) return;
    seen = slot.round.load(std::memory_order_acquire);
    const auto start = std::chrono::steady_clock::now();
    shards_[shard_index]->run_window(slot.bound);
    // wall_ns is published by the release fetch_sub below and read by the
    // coordinator only after it observes the countdown reach zero.
    slot.wall_ns = wall_ns_since(start);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last shard of the window: wake the coordinator if it parked.
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_cv_.notify_one();
    }
  }
}

bool ParallelEngine::dispatch_window(const std::vector<std::size_t>& active,
                                     const std::vector<TimeNs>& bounds) {
  start_workers();
  pending_.store(static_cast<int>(active.size()) - 1, std::memory_order_release);
  for (std::size_t i = 1; i < active.size(); ++i) {
    WorkerSlot& slot = *slots_[active[i]];
    {
      // The mutex pairs with the worker's predicate check so the round bump
      // cannot slip between its check and its wait (lost wakeup).
      std::lock_guard<std::mutex> lock(slot.mutex);
      slot.bound = bounds[active[i]];
      slot.round.fetch_add(1, std::memory_order_release);
    }
    slot.cv.notify_one();
  }
  // The coordinator is a worker too: run the first active shard here
  // instead of idling at the barrier.
  const auto start = std::chrono::steady_clock::now();
  shards_[active[0]]->run_window(bounds[active[0]]);
  const std::uint64_t own_wall = wall_ns_since(start);
  // If workers are still running once the coordinator's own shard is done,
  // the barrier genuinely waits on the window's slowest shard; otherwise it
  // falls straight through.
  const bool stalled = pending_.load(std::memory_order_acquire) != 0;
  if (spin_) {
    for (int i = 0;
         i < kSpinIters && pending_.load(std::memory_order_acquire) != 0; ++i) {
      cpu_pause();
    }
  }
  if (pending_.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock,
                  [&] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  telemetry::Registry& reg = telemetry::current();
  if (reg.counting()) {
    const telemetry::Metrics& tm = reg.metrics();
    if (stalled) reg.add(tm.sim_window_stalls);
    std::uint64_t fastest = own_wall;
    std::uint64_t slowest = own_wall;
    for (std::size_t i = 1; i < active.size(); ++i) {
      const std::uint64_t wall = slots_[active[i]]->wall_ns;
      fastest = std::min(fastest, wall);
      slowest = std::max(slowest, wall);
    }
    reg.observe(tm.sim_window_stall_ns, slowest - fastest);
  }
  return stalled;
}

void ParallelEngine::rethrow_earliest_failure() {
  // Deterministic pick: the failure earliest in virtual time, shard index
  // breaking ties -- the one a sequential run would have hit first.
  Engine* first = nullptr;
  for (const auto& engine : shards_) {
    if (!engine->failure_) continue;
    if (first == nullptr || engine->failure_time_ < first->failure_time_) {
      first = engine.get();
    }
  }
  DT_ASSERT(first != nullptr);
  for (const auto& engine : shards_) {
    if (engine->failure_ && engine.get() != first) {
      log::warn("sim", "additional process failure in '", engine->failure_name_,
                "' on shard ", engine->shard_, " (earliest failure wins)");
      engine->failure_ = nullptr;
    }
  }
  auto error = first->failure_;
  first->failure_ = nullptr;
  std::rethrow_exception(error);
}

void ParallelEngine::checkpoint_at_deadline(TimeNs deadline) {
  // The conservative bound guarantees every in-flight delivery lands past
  // the deadline (the last window was capped at deadline + 1), but sibling
  // inboxes may still hold those future deliveries: move them into their
  // home queues now so the stopped state is a complete checkpoint that a
  // later run() -- or a caller inspecting the shards -- resumes from
  // exactly as a sequential run would.
  for (auto& engine : shards_) engine->drain_inbox();
  for (auto& engine : shards_) {
    const auto next = engine->queue_.next_time();
    DT_ASSERT(!next || *next > deadline, "deadline checkpoint left shard ",
              engine->shard_, " a pending event at or before t=", deadline);
    engine->now_ = std::max(engine->now_, deadline);
  }
}

void ParallelEngine::run(TimeNs deadline) {
  if (shard_count() == 1) {
    shards_[0]->run(deadline);
    return;
  }
  DT_EXPECT(lookahead_ > 0,
            "ParallelEngine::run with ", shard_count(),
            " shards requires a positive lookahead (set by machine::Cluster)");

  parallel_phase_.store(true, std::memory_order_release);
  struct PhaseReset {
    std::atomic<bool>& flag;
    ~PhaseReset() { flag.store(false, std::memory_order_release); }
  } reset{parallel_phase_};

  telemetry::Registry& reg = telemetry::current();
  const telemetry::Metrics& tm = reg.metrics();
  if (reg.spans_enabled()) {
    for (int i = 0; i < shard_count(); ++i) {
      reg.name_track(telemetry::Metrics::kShardTrackBase + static_cast<std::uint32_t>(i),
                     "sim.shard" + std::to_string(i));
    }
  }

  const std::size_t n = shards_.size();
  std::vector<TimeNs> next(n);
  std::vector<TimeNs> bounds(n);
  std::vector<std::size_t> active;
  while (true) {
    // Coordinator section: workers are quiescent, so single-threaded access
    // to every shard is safe.
    for (auto& engine : shards_) engine->drain_inbox();

    bool failed = false;
    TimeNs min_next = kNoEvent;
    TimeNs second = kNoEvent;  ///< smallest next() of every shard but `leader`
    std::size_t leader = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (shards_[i]->failure_) failed = true;
      const auto at = shards_[i]->queue_.next_time();
      next[i] = at ? *at : kNoEvent;
      if (next[i] < min_next) {
        second = min_next;
        min_next = next[i];
        leader = i;
      } else {
        second = std::min(second, next[i]);
      }
    }
    if (failed) rethrow_earliest_failure();
    if (min_next == kNoEvent) break;  // every queue drained
    if (deadline >= 0 && min_next > deadline) {
      checkpoint_at_deadline(deadline);
      return;  // stopped at deadline, fine
    }

    // Per-shard bounds (see the header): B(i) = min(next(i) + 2L, the
    // smallest next() of the other shards + L).  A deadline caps every
    // bound so no event past it executes.  A bound beyond the classic
    // global window (min_next + L) is a fused window: the leader runs past
    // it without another coordinator round.
    const TimeNs classic = sat_add(min_next, lookahead_);
    const TimeNs round_trip = sat_add(lookahead_, lookahead_);
    active.clear();
    std::uint64_t fused = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const TimeNs others = i == leader ? second : min_next;
      TimeNs bound = std::min(sat_add(next[i], round_trip), sat_add(others, lookahead_));
      if (deadline >= 0 && bound > deadline + 1) bound = deadline + 1;
      bounds[i] = bound;
      if (next[i] < bound) {
        active.push_back(i);
        if (bound > classic) ++fused;
      }
    }
    // The leader always clears its own bound (L > 0), so each round
    // executes at least one event.
    DT_ASSERT(!active.empty(), "window round made no progress");
    ++windows_;
    if (fused > 0) ++fused_windows_;
    if (reg.counting()) {
      reg.add(tm.sim_windows);
      reg.observe(tm.sim_window_shards, active.size());
      if (fused > 0) reg.add(tm.sim_window_fusions, fused);
      std::size_t depth = 0;
      for (const auto& engine : shards_) depth += engine->queue_.size();
      reg.observe(tm.sim_queue_depth, depth);
    }
    // One span per active shard on that shard's own track, emitted the same
    // way for the inline and pooled paths.  Spans on one track are disjoint
    // in virtual time: a window's span closes at the shard clock (< B(i)),
    // and both the next local event and any cross-shard arrival are >= B(i).
    const bool spans = reg.spans_enabled();
    if (spans) {
      for (const std::size_t i : active) {
        reg.span_begin(tm.span_window,
                       telemetry::Metrics::kShardTrackBase + static_cast<std::uint32_t>(i),
                       next[i]);
      }
    }
    if (active.size() == 1) {
      // One busy shard (sequential stretches, e.g. the tool connecting
      // while the application waits): run it inline, skip the pool barrier.
      shards_[active[0]]->run_window(bounds[active[0]]);
    } else {
      dispatch_window(active, bounds);
    }
    if (spans) {
      for (const std::size_t i : active) {
        reg.span_end(tm.span_window,
                     telemetry::Metrics::kShardTrackBase + static_cast<std::uint32_t>(i),
                     shards_[i]->now_);
      }
    }
  }

  // All queues drained: deadlock if any non-daemon process is still blocked.
  std::size_t blocked = 0;
  std::vector<std::string> names;
  for (const auto& engine : shards_) {
    blocked += engine->alive_ - engine->daemons_alive_;
    auto shard_names = engine->blocked_process_names();
    names.insert(names.end(), shard_names.begin(), shard_names.end());
  }
  if (blocked > 0) {
    std::sort(names.begin(), names.end());
    std::ostringstream os;
    os << "simulation deadlock: " << blocked
       << " process(es) blocked with no pending events:";
    for (const auto& name : names) os << " '" << name << "'";
    throw DeadlockError(os.str());
  }
}

}  // namespace dyntrace::sim
