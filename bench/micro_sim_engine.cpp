// Simulation-substrate throughput baseline (DESIGN.md §8): the
// zero-allocation EventQueue against the legacy std::function +
// unordered_map design it replaced, whole-engine events/sec for the
// conservative parallel engine at 1/2/4/8 worker threads, and the
// 512-rank fig7a cell (Smg98/Full) sequential vs sharded under the
// window protocol.
//
// Emits BENCH_sim.json so the perf trajectory has a tracked artifact next
// to BENCH_control.json.  Every multi-thread row records its window shape
// (windows, fused windows, cross-shard deliveries) beside its wall time.
// Shape checks: >= 1.5x queue speedup on schedule/pop and >= 3x on
// schedule/cancel, bit-identical parallel results at every thread count, and
// (where the host has the cores) the committed 8-thread scaling floor on the
// fig7a cell.
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "asci/app.hpp"
#include "bench_common.hpp"
#include "dynprof/run.hpp"
#include "sim/parallel_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace dyntrace;
using sim::TimeNs;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

/// The pre-refactor pending-event set, reconstructed as the baseline: one
/// std::function heap allocation per event, an unordered_map as the live
/// table (cancel = erase), and dead heap entries skipped on pop.
class LegacyQueue {
 public:
  std::uint64_t schedule(TimeNs at, std::function<void()> cb) {
    heap_.push(Entry{at, next_seq_});
    live_.emplace(next_seq_, std::move(cb));
    return next_seq_++;
  }
  bool cancel(std::uint64_t id) { return live_.erase(id) > 0; }
  bool empty() {
    while (!heap_.empty() && live_.find(heap_.top().seq) == live_.end()) heap_.pop();
    return heap_.empty();
  }
  std::pair<TimeNs, std::function<void()>> pop() {
    const Entry top = heap_.top();
    heap_.pop();
    auto it = live_.find(top.seq);
    std::pair<TimeNs, std::function<void()>> out{top.time, std::move(it->second)};
    live_.erase(it);
    return out;
  }

 private:
  struct Entry {
    TimeNs time;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, std::function<void()>> live_;
  std::uint64_t next_seq_ = 0;
};

struct QueueRate {
  double events_per_s = 0;
  std::uint64_t fired = 0;  ///< folded into the JSON so the work cannot be elided
};

/// What an engine callback actually carries: a coroutine handle plus the
/// engine/process context it resumes with -- ~40 bytes.  Past
/// std::function's 16-byte inline buffer (so the legacy design pays one
/// heap allocation per event), within InlineCallback's 64-byte SBO.
struct EventPayload {
  QueueRate* rate;
  void* engine;
  void* process;
  std::uint64_t seq;
  TimeNs when;
  void operator()() const { ++rate->fired; }
};

/// A pending set `window` deep (fig8 scale: 512 ranks x in-flight
/// messages), alternating pop + schedule `total` times.  Deep sets are
/// where the legacy design collapses: the unordered_map live table and the
/// per-event std::function allocations go cache-cold, while the slot table
/// and 24-byte heap entries stay compact.
template <typename Queue>
QueueRate schedule_pop_rate(int window, std::uint64_t total) {
  QueueRate rate;
  Rng rng(7);
  Queue queue;
  const auto payload = [&](TimeNs at, std::uint64_t seq) {
    return EventPayload{&rate, &queue, &rng, seq, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    queue.schedule(at, payload(at, static_cast<std::uint64_t>(i)));
  }
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    auto [now, cb] = queue.pop();
    cb();
    queue.schedule(now + 1 + static_cast<TimeNs>(rng.next_below(1'000'000)),
                   payload(now, i));
  }
  rate.events_per_s = static_cast<double>(total) / seconds_since(begin);
  while (!queue.empty()) queue.pop().second();
  return rate;
}

/// The timeout pattern: a window of `window` live events, `churn` rounds of
/// cancel-the-oldest + schedule-a-new; pop the window at the end.
template <typename Queue, typename Id>
QueueRate schedule_cancel_rate(int window, int churn) {
  QueueRate rate;
  const auto begin = std::chrono::steady_clock::now();
  Rng rng(11);
  Queue queue;
  std::vector<Id> ids;
  TimeNs horizon = 1'000'000;
  std::uint64_t seq = 0;
  const auto payload = [&](TimeNs at) {
    return EventPayload{&rate, &queue, &ids, seq++, at};
  };
  for (int i = 0; i < window; ++i) {
    const auto at = static_cast<TimeNs>(rng.next_below(1'000'000));
    ids.push_back(queue.schedule(at, payload(at)));
  }
  for (int i = 0; i < churn; ++i) {
    queue.cancel(ids[static_cast<std::size_t>(i % window)]);
    const auto at = horizon + static_cast<TimeNs>(rng.next_below(1'000'000));
    ids[static_cast<std::size_t>(i % window)] = queue.schedule(at, payload(at));
    ++horizon;
  }
  while (!queue.empty()) queue.pop().second();
  rate.events_per_s = static_cast<double>(window + 2 * churn) / seconds_since(begin);
  return rate;
}

/// A parallel run's window schedule: how many barrier rounds it paid for
/// how much cross-shard traffic.
struct WindowShape {
  std::uint64_t windows = 0;
  std::uint64_t fused_windows = 0;
  std::uint64_t cross_deliveries = 0;
};

WindowShape window_shape(const sim::ParallelEngine& group) {
  WindowShape shape{group.windows(), group.fused_windows(), 0};
  for (int src = 0; src < group.shard_count(); ++src) {
    for (int dst = 0; dst < group.shard_count(); ++dst) {
      if (src != dst) shape.cross_deliveries += group.channel_deliveries(src, dst);
    }
  }
  return shape;
}

/// The JSON fields of a multi-thread row's window shape.
std::string window_fields(const WindowShape& shape) {
  return ", \"windows\": " + std::to_string(shape.windows) +
         ", \"fused_windows\": " + std::to_string(shape.fused_windows) +
         ", \"cross_deliveries\": " + std::to_string(shape.cross_deliveries);
}

struct EngineRun {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over every record, in node order
  WindowShape shape;
};

/// The cross-shard ring workload of tests/sim/test_parallel_engine.cpp at
/// bench size: every node sleeps a pseudo-random delay per step, then sends
/// to its successor's home shard with latency >= lookahead.  Per-node
/// digests are written on the home shard only and folded in node order, so
/// the result is comparable bit-for-bit across thread counts.
EngineRun run_ring(int nodes, int shards, int steps) {
  // Coarse lookahead relative to the ~1000 ns step stride: each window
  // carries a couple of steps' worth of events for every node, the regime
  // the conservative protocol is built for.
  constexpr TimeNs kLookahead = 2000;
  sim::ParallelEngine group(sim::ParallelEngine::Options{shards, kLookahead});
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(nodes),
                                     0xcbf29ce484222325ull);
  const auto fold = [&digests](int node, TimeNs time, int from, int step) {
    std::uint64_t& d = digests[static_cast<std::size_t>(node)];
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(time), static_cast<std::uint64_t>(from),
          static_cast<std::uint64_t>(step)}) {
      d = (d ^ v) * 0x100000001b3ull;
    }
  };
  auto node_main = [&](int node) -> sim::Coro<void> {
    sim::Engine& home = group.shard(node % shards);
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t h = (static_cast<std::uint64_t>(node) * 2654435761u) ^
                              (static_cast<std::uint64_t>(step) * 40503u);
      co_await home.sleep(static_cast<TimeNs>(h % 97) + 1);
      fold(node, home.now(), node, step);
      const int dst = (node + 1) % nodes;
      sim::Engine& peer = group.shard(dst % shards);
      // Unique per (node, step): no cross-sender timestamp ties (DESIGN.md
      // §8), and always >= now + lookahead since now <= 97 * (step + 1).
      const TimeNs at = kLookahead + static_cast<TimeNs>(step + 1) * 1000 + node;
      peer.deliver_at(at, [&fold, &peer, node, dst, step] {
        fold(dst, peer.now(), node, step);
      });
    }
  };
  const auto begin = std::chrono::steady_clock::now();
  for (int node = 0; node < nodes; ++node) {
    group.shard(node % shards).spawn(node_main(node), "node" + std::to_string(node));
  }
  group.run();
  EngineRun run;
  run.wall_s = seconds_since(begin);
  run.shape = window_shape(group);
  // One sleep event + one cross-shard delivery per (node, step).
  run.events = static_cast<std::uint64_t>(nodes) * static_cast<std::uint64_t>(steps) * 2;
  run.digest = 0xcbf29ce484222325ull;
  for (const std::uint64_t d : digests) run.digest = (run.digest ^ d) * 0x100000001b3ull;
  return run;
}

struct Fig7Cell {
  int threads = 1;
  double wall_s = 0;
  double app_seconds = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t stats_digest = 0;
  WindowShape shape;
};

/// The one bit-identity predicate for a fig7a cell against the sequential
/// run, shared by the table, BENCH_sim.json and the shape check.
bool same_result(const Fig7Cell& a, const Fig7Cell& b) {
  return a.trace_digest == b.trace_digest && a.stats_digest == b.stats_digest &&
         a.app_seconds == b.app_seconds;
}

/// One fig7a cell -- Smg98 under the Full policy -- at bench rank count,
/// timed end to end (launch + instrument + run + merge).  The trace and
/// stats digests are the bit-identity witness across --sim-threads.
Fig7Cell run_fig7a_cell(const asci::AppSpec& app, int ranks, double scale,
                        int sim_threads) {
  dynprof::RunSpec spec;
  spec.jobs = {{.app = &app,
                .policy = dynprof::Policy::kFull,
                .nprocs = ranks,
                .problem_scale = scale,
                .seed = 42}};
  spec.sim_threads = sim_threads;
  Fig7Cell cell;
  spec.on_complete = [&cell](dynprof::Launch& launch) {
    cell.shape = window_shape(launch.parallel_engine());
  };
  const auto begin = std::chrono::steady_clock::now();
  const dynprof::JobResult result = dynprof::run(spec).jobs.front();
  cell.threads = sim_threads;
  cell.wall_s = seconds_since(begin);
  cell.app_seconds = result.app_seconds;
  cell.trace_digest = result.trace_digest;
  cell.stats_digest = result.stats_digest;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  std::int64_t queue_n = 16384;
  std::int64_t queue_reps = 40;
  std::int64_t ring_nodes = 64;
  std::int64_t ring_steps = 1500;
  std::int64_t fig7a_ranks = 512;
  double fig7a_scale = 0.05;
  std::string json_path = "BENCH_sim.json";
  CliParser parser("micro_sim_engine",
                   "Event-queue and parallel-engine throughput baseline (BENCH_sim.json)");
  parser.option_int("queue-n", "events per schedule/pop round (default 16384)", &queue_n);
  parser.option_int("queue-reps", "schedule/pop rounds (default 40)", &queue_reps);
  parser.option_int("ring-nodes", "ring workload nodes (default 64)", &ring_nodes);
  parser.option_int("ring-steps", "ring workload steps per node (default 1500)", &ring_steps);
  parser.option_int("fig7a-ranks", "fig7a cell rank count (default 512)", &fig7a_ranks);
  parser.option_double("fig7a-scale", "fig7a cell problem scale (default 0.05)",
                       &fig7a_scale);
  parser.option_string("json", "output artifact (default BENCH_sim.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // --- Part 1: EventQueue vs the legacy std::function design --------------
  std::puts("Part 1: event-queue throughput (events/s)\n");
  const int n = static_cast<int>(queue_n);
  const int reps = static_cast<int>(queue_reps);
  // Pending-set depth: 512 ranks x ~16 in-flight events each (fig8 scale).
  const int sp_window = 8192;
  const auto total = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(reps);
  const QueueRate legacy_sp = schedule_pop_rate<LegacyQueue>(sp_window, total);
  const QueueRate new_sp = schedule_pop_rate<sim::EventQueue>(sp_window, total);
  const int churn = n * reps / 2;
  const QueueRate legacy_sc = schedule_cancel_rate<LegacyQueue, std::uint64_t>(1024, churn);
  const QueueRate new_sc = schedule_cancel_rate<sim::EventQueue, sim::EventId>(1024, churn);
  const double sp_speedup = new_sp.events_per_s / legacy_sp.events_per_s;
  const double sc_speedup = new_sc.events_per_s / legacy_sc.events_per_s;

  TextTable queue_table({"Workload", "Legacy", "Zero-alloc", "Speedup"});
  queue_table.add_row({"schedule/pop", TextTable::num(legacy_sp.events_per_s, 0),
                       TextTable::num(new_sp.events_per_s, 0),
                       TextTable::num(sp_speedup, 2) + "x"});
  queue_table.add_row({"schedule/cancel", TextTable::num(legacy_sc.events_per_s, 0),
                       TextTable::num(new_sc.events_per_s, 0),
                       TextTable::num(sc_speedup, 2) + "x"});
  std::fputs(queue_table.render().c_str(), stdout);

  // --- Part 2: engine events/sec, sequential vs parallel ------------------
  std::puts("\nPart 2: parallel engine events/s (cross-shard ring workload)\n");
  const int nodes = static_cast<int>(ring_nodes);
  const int steps = static_cast<int>(ring_steps);
  struct ThreadPoint {
    int threads;
    EngineRun run;
  };
  std::vector<ThreadPoint> points;
  for (const int threads : {1, 2, 4, 8}) {
    points.push_back({threads, run_ring(nodes, threads, steps)});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  const EngineRun& seq = points.front().run;
  bool all_identical = true;
  TextTable engine_table({"Threads", "Wall (s)", "Events/s", "Speedup", "Identical"});
  for (const auto& p : points) {
    const bool identical = p.run.digest == seq.digest;
    all_identical = all_identical && identical;
    engine_table.add_row({std::to_string(p.threads), TextTable::num(p.run.wall_s, 3),
                          TextTable::num(static_cast<double>(p.run.events) / p.run.wall_s, 0),
                          TextTable::num(seq.wall_s / p.run.wall_s, 2) + "x",
                          identical ? "yes" : "NO"});
  }
  std::fputs(engine_table.render().c_str(), stdout);

  // --- Part 3: the 512-rank fig7a cell, sequential vs sharded -------------
  std::printf("\nPart 3: fig7a cell (Smg98/Full, %d ranks, scale %.2f)\n\n",
              static_cast<int>(fig7a_ranks), fig7a_scale);
  asci::AppSpec app512 = asci::smg98();
  app512.max_procs = static_cast<int>(fig7a_ranks);
  std::vector<Fig7Cell> cells;
  for (const int threads : {1, 2, 4, 8}) {
    cells.push_back(run_fig7a_cell(app512, static_cast<int>(fig7a_ranks), fig7a_scale,
                                   threads));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  const Fig7Cell& cell_seq = cells.front();
  bool cells_identical = true;
  TextTable cell_table({"Threads", "Wall (s)", "Speedup", "Identical"});
  for (const auto& c : cells) {
    const bool identical = same_result(c, cell_seq);
    cells_identical = cells_identical && identical;
    cell_table.add_row({std::to_string(c.threads), TextTable::num(c.wall_s, 3),
                        TextTable::num(cell_seq.wall_s / c.wall_s, 2) + "x",
                        identical ? "yes" : "NO"});
  }
  std::fputs(cell_table.render().c_str(), stdout);
  const double fig7a_speedup8 = cell_seq.wall_s / cells.back().wall_s;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("(%u hardware core(s); the 8-thread scaling floor is gated only "
              "where the threads have cores to run on)\n",
              cores);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"queue\": {\n"
               "    \"events\": %d,\n"
               "    \"schedule_pop\": {\"legacy_eps\": %.0f, \"new_eps\": %.0f, "
               "\"speedup\": %.2f},\n"
               "    \"schedule_cancel\": {\"legacy_eps\": %.0f, \"new_eps\": %.0f, "
               "\"speedup\": %.2f},\n"
               "    \"fired\": %llu\n"
               "  },\n"
               "  \"engine\": {\n"
               "    \"ring_nodes\": %d,\n"
               "    \"ring_steps\": %d,\n"
               "    \"events\": %llu,\n"
               "    \"threads\": [\n",
               n, legacy_sp.events_per_s, new_sp.events_per_s, sp_speedup,
               legacy_sc.events_per_s, new_sc.events_per_s, sc_speedup,
               static_cast<unsigned long long>(legacy_sp.fired + new_sp.fired +
                                               legacy_sc.fired + new_sc.fired),
               nodes, steps, static_cast<unsigned long long>(seq.events));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "      {\"threads\": %d, \"wall_s\": %.4f, \"events_per_s\": %.0f, "
                 "\"speedup\": %.3f, \"identical\": %s%s}%s\n",
                 p.threads, p.run.wall_s,
                 static_cast<double>(p.run.events) / p.run.wall_s,
                 seq.wall_s / p.run.wall_s, p.run.digest == seq.digest ? "true" : "false",
                 p.threads > 1 ? window_fields(p.run.shape).c_str() : "",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "    ]\n  },\n"
               "  \"fig7a_512\": {\n"
               "    \"ranks\": %d,\n"
               "    \"scale\": %.3f,\n"
               "    \"hardware_cores\": %u,\n"
               "    \"threads\": [\n",
               static_cast<int>(fig7a_ranks), fig7a_scale, cores);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::fprintf(f,
                 "      {\"threads\": %d, \"wall_s\": %.4f, \"speedup\": %.3f, "
                 "\"identical\": %s%s}%s\n",
                 c.threads, c.wall_s, cell_seq.wall_s / c.wall_s,
                 same_result(c, cell_seq) ? "true" : "false",
                 c.threads > 1 ? window_fields(c.shape).c_str() : "",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  // schedule/pop is heap-bound for both designs, so the live-table and
  // allocation savings show as ~2x; the cancel-churn workload, where the
  // legacy heap fills with dead entries, is where the redesign pays 3x+.
  checks.push_back({"zero-alloc queue >= 1.5x legacy on schedule/pop", sp_speedup >= 1.5});
  checks.push_back({"zero-alloc queue >= 3x legacy on schedule/cancel (timeout churn)",
                    sc_speedup >= 3.0});
  checks.push_back({"parallel runs bit-identical at 1/2/4/8 threads", all_identical});
  checks.push_back({"fig7a 512-rank cell bit-identical at 1/2/4/8 threads",
                    cells_identical});
  if (cores >= 8) {
    // The committed scaling floor (ISSUE 6 acceptance): channel clocks must
    // hold >= 4x at 8 threads on the 512-rank cell.  Skipped where the
    // host cannot physically run 8 workers (the single-core CI fallback).
    checks.push_back({"fig7a 512-rank cell >= 4x speedup at 8 threads",
                      fig7a_speedup8 >= 4.0});
  }
  // schedule/pop fires its churned total plus the final live window; the
  // cancel loop cancels exactly `churn` of its `window + churn` events, so
  // only the final window survives to fire.
  checks.push_back({"every surviving event fired exactly once",
                    new_sp.fired == total + static_cast<std::uint64_t>(sp_window) &&
                        legacy_sp.fired == total + static_cast<std::uint64_t>(sp_window) &&
                        new_sc.fired == 1024 && legacy_sc.fired == 1024});
  return report_checks(checks);
}
