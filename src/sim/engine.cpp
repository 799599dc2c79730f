#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "sim/parallel_engine.hpp"
#include "support/log.hpp"
#include "telemetry/metrics.hpp"

namespace dyntrace::sim {

namespace {

/// Sequential runs observe sim.queue_depth once per this many events.
constexpr std::uint64_t kQueueDepthSampleEvents = 1024;

/// Scoped thread-local "which engine is executing" marker.
struct CurrentGuard {
  Engine* saved;
  explicit CurrentGuard(Engine** slot, Engine* engine) : saved(*slot), slot_(slot) {
    *slot_ = engine;
  }
  ~CurrentGuard() { *slot_ = saved; }
  Engine** slot_;
};

}  // namespace

// Detached driver: owns nothing after completion (final_suspend never), but
// registers its handle with the engine so that frames still suspended when
// the engine dies are destroyed (which recursively destroys the whole chain
// of child Coro frames).
struct Engine::RootDriver {
  struct promise_type {
    RootDriver get_return_object() {
      return RootDriver{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // The driver body catches everything; reaching here is a bug.
      DT_PANIC("exception escaped RootDriver");
    }
  };
  std::coroutine_handle<promise_type> handle;
};

Engine::~Engine() {
  // Destroy any still-suspended root frames (daemons, or teardown after a
  // failed run).  Destroying the root frame unwinds its child coroutines.
  for (auto& [id, info] : roots_) {
    if (info.handle) info.handle.destroy();
  }
  detail::frame_pool_release();
}

EventId Engine::schedule_at(TimeNs at, EventQueue::Callback cb) {
  assert_local_context();
  DT_ASSERT(at >= now_, "cannot schedule into the past (at=", at, " now=", now_, ")");
  return queue_.schedule(at, std::move(cb));
}

EventId Engine::schedule_after(TimeNs delay, EventQueue::Callback cb) {
  assert_local_context();
  DT_ASSERT(delay >= 0, "negative delay");
  return queue_.schedule(now_ + delay, std::move(cb));
}

void Engine::deliver_at(TimeNs at, EventQueue::Callback cb) {
  Engine* cur = tls_current_;
  if (cur == this || group_ == nullptr || !group_->in_parallel_phase()) {
    // Local delivery, or no concurrent windows in flight (setup code,
    // sequential runs): a plain schedule keeps single-shard behaviour
    // identical to the classic engine.
    DT_ASSERT(at >= now_, "cannot deliver into the past (at=", at, " now=", now_, ")");
    queue_.schedule(at, std::move(cb));
    return;
  }
  DT_ASSERT(cur != nullptr,
            "cross-shard deliver_at from outside any engine during a parallel run");
  // Send-side conservative check: the delivery must clear the sender's
  // clock by the lookahead, or a concurrent window here may have already
  // executed past it.  (Faults only stretch delays, never shrink them, so
  // this holds under injection too.)
  DT_ASSERT(at >= cur->now_ + group_->lookahead(),
            "conservative bound violated: shard ", cur->shard_, " at t=", cur->now_,
            " delivering to shard ", shard_, " at t=", at, " under lookahead ",
            group_->lookahead());
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  // cross_seq_ belongs to the *sender*: exactly one thread executes a
  // shard's window, so the increment is single-writer.
  inbox_.push_back(ForeignEvent{at, cur->shard_, cur->cross_seq_++, std::move(cb)});
}

void Engine::drain_inbox() {
  std::vector<ForeignEvent> batch;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    batch.swap(inbox_);
  }
  // Deterministic merge of same-timestamp deliveries: the (time, shard,
  // seq) key is independent of thread scheduling.
  std::sort(batch.begin(), batch.end(), [](const ForeignEvent& a, const ForeignEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
    return a.src_seq < b.src_seq;
  });
  for (ForeignEvent& e : batch) {
    DT_ASSERT(e.at >= now_, "conservative bound violated: shard ", shard_, " at t=", now_,
              " received a delivery for t=", e.at, " from shard ", e.src_shard);
    queue_.schedule(e.at, std::move(e.cb));
  }
  if (!batch.empty()) {
    if (group_ != nullptr &&
        channel_from_.size() < static_cast<std::size_t>(group_->shard_count())) {
      channel_from_.resize(static_cast<std::size_t>(group_->shard_count()), 0);
    }
    for (const ForeignEvent& e : batch) {
      if (static_cast<std::size_t>(e.src_shard) < channel_from_.size()) {
        ++channel_from_[static_cast<std::size_t>(e.src_shard)];
      }
    }
    telemetry::Registry& reg = telemetry::current();
    if (reg.counting()) reg.add(reg.metrics().sim_cross_deliveries, batch.size());
  }
}

void Engine::post(std::coroutine_handle<> h) {
  assert_local_context();
  DT_ASSERT(h && !h.done(), "posting an invalid coroutine handle");
  queue_.schedule(now_, [h] { h.resume(); });
}

// The driver coroutine owns the process body for its whole lifetime.  It is
// a member coroutine: `this` (the Engine) is guaranteed to outlive every
// frame because ~Engine destroys surviving frames.
Engine::RootDriver Engine::drive_root(Coro<void> body, std::uint64_t root_id, bool daemon) {
  try {
    co_await std::move(body);
  } catch (...) {
    record_failure(roots_.at(root_id).name, std::current_exception());
  }
  finish_root(root_id, daemon);
}

void Engine::spawn(Coro<void> body, std::string name, SpawnOptions options) {
  assert_local_context();
  DT_ASSERT(body.valid(), "spawning an empty Coro");
  const std::uint64_t id = next_root_id_++;
  ++alive_;
  if (options.daemon) ++daemons_alive_;

  RootDriver driver = drive_root(std::move(body), id, options.daemon);

  roots_.emplace(id, RootInfo{driver.handle, std::move(name), options.daemon});
  // Start at the current time, after events already queued for `now`.
  queue_.schedule(now_, [h = driver.handle] { h.resume(); });
}

void Engine::record_failure(const std::string& name, std::exception_ptr error) {
  if (!failure_) {
    failure_ = error;
    failure_name_ = name;
    failure_time_ = now_;
  } else {
    log::warn("sim", "additional process failure in '", name, "' (first failure wins)");
  }
}

void Engine::finish_root(std::uint64_t id, bool daemon) {
  auto it = roots_.find(id);
  DT_ASSERT(it != roots_.end());
  // The frame is about to self-destroy (final_suspend never): forget it.
  roots_.erase(it);
  DT_ASSERT(alive_ > 0);
  --alive_;
  if (daemon) {
    DT_ASSERT(daemons_alive_ > 0);
    --daemons_alive_;
  }
}

std::vector<std::string> Engine::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& [id, info] : roots_) {
    if (!info.daemon) names.push_back(info.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  auto [time, cb] = queue_.pop();
  DT_ASSERT(time >= now_, "event queue went backwards");
  now_ = time;
  ++events_executed_;
  CurrentGuard guard(&tls_current_, this);
  cb();
  return true;
}

void Engine::run_window(TimeNs bound) {
  const std::uint64_t before = events_executed_;
  while (!failure_) {
    const auto next = queue_.next_time();
    if (!next || *next >= bound) break;
    step();
  }
  // Bulk-count the window's events: one telemetry update per window keeps
  // step() itself untouched (it is the hottest loop in the project).
  if (events_executed_ != before) {
    telemetry::Registry& reg = telemetry::current();
    reg.add(reg.metrics().sim_events, events_executed_ - before);
  }
}

std::size_t Engine::run_until_blocked(TimeNs deadline) {
  const std::uint64_t before = events_executed_;
  telemetry::Registry& reg = telemetry::current();
  // A sequential run has no windows to observe sim.queue_depth at, so it
  // samples the queue every kQueueDepthSampleEvents events instead.
  const bool sample_depth = reg.counting();
  std::uint64_t next_sample = events_executed_;
  while (!queue_.empty() && !failure_) {
    if (deadline >= 0) {
      auto next = queue_.next_time();
      if (next && *next > deadline) {
        now_ = deadline;
        break;
      }
    }
    if (sample_depth && events_executed_ >= next_sample) {
      reg.observe(reg.metrics().sim_queue_depth, queue_.size());
      next_sample = events_executed_ + kQueueDepthSampleEvents;
    }
    step();
  }
  if (events_executed_ != before) {
    reg.add(reg.metrics().sim_events, events_executed_ - before);
  }
  if (failure_) {
    auto error = failure_;
    failure_ = nullptr;
    std::rethrow_exception(error);
  }
  return alive_ - daemons_alive_;
}

void Engine::run(TimeNs deadline) {
  const std::size_t blocked = run_until_blocked(deadline);
  if (deadline >= 0 && !queue_.empty()) return;  // stopped at deadline, fine
  if (blocked > 0) {
    std::ostringstream os;
    os << "simulation deadlock: " << blocked << " process(es) blocked with no pending events:";
    for (const auto& name : blocked_process_names()) os << " '" << name << "'";
    throw DeadlockError(os.str());
  }
}

}  // namespace dyntrace::sim
