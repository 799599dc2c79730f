// Spill equivalence: spilling trace shards to encoded runs changes where
// records live, never what they are.  For the same run configuration, a
// run whose shards spill 128-event block runs (so the merge really reads
// encoded runs back, not just memory) must produce bit-identical merged
// traces, statistics, and adaptive decision logs to the same run kept in
// memory -- at every --sim-threads.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "dynprof/policy.hpp"

namespace dyntrace::dynprof {
namespace {

PolicyResult run_cell(Policy policy, std::size_t spill_bytes, int sim_threads) {
  RunConfig config;
  config.app = &asci::smg98();
  config.policy = policy;
  config.nprocs = 8;
  config.problem_scale = 0.15;
  config.seed = 42;
  config.sim_threads = sim_threads;
  config.trace_spill_bytes = spill_bytes;
  return run_policy(config);
}

constexpr std::size_t kNoSpill = 0;
constexpr std::size_t kSmallRuns = std::size_t{1} << 12;  // 128-event runs: many spills

TEST(FormatEquivalence, FullRunDigestsMatchAcrossFormatsAndThreads) {
  const PolicyResult base = run_cell(Policy::kFull, kNoSpill, 1);
  ASSERT_GT(base.trace_events, 0u);
  ASSERT_GT(base.trace_digest, 0u);
  for (const std::size_t spill : {kNoSpill, kSmallRuns}) {
    for (const int threads : {1, 2, 4}) {
      const PolicyResult r = run_cell(Policy::kFull, spill, threads);
      EXPECT_EQ(r.trace_digest, base.trace_digest)
          << "spill=" << spill << " sim-threads=" << threads;
      EXPECT_EQ(r.stats_digest, base.stats_digest)
          << "spill=" << spill << " sim-threads=" << threads;
      EXPECT_EQ(r.trace_events, base.trace_events)
          << "spill=" << spill << " sim-threads=" << threads;
      EXPECT_EQ(r.app_seconds, base.app_seconds)
          << "spill=" << spill << " sim-threads=" << threads;
    }
  }
}

TEST(FormatEquivalence, AdaptiveDecisionLogIdenticalAcrossFormats) {
  // The controller's decision trail is driven by measured overhead, which
  // must not see where the trace is kept at all.
  const PolicyResult memory = run_cell(Policy::kAdaptive, kNoSpill, 1);
  const PolicyResult spilled = run_cell(Policy::kAdaptive, kSmallRuns, 2);
  EXPECT_EQ(memory.trace_digest, spilled.trace_digest);
  EXPECT_EQ(memory.stats_digest, spilled.stats_digest);
  EXPECT_EQ(memory.confsyncs, spilled.confsyncs);
  ASSERT_FALSE(memory.decisions.decisions.empty());
  EXPECT_EQ(analysis::render_decision_log(memory.decisions),
            analysis::render_decision_log(spilled.decisions));
}

}  // namespace
}  // namespace dyntrace::dynprof
