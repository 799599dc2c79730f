// Postmortem clock synchronisation: inject known per-process clock offsets
// into a real run, detect the resulting causality violations, estimate the
// offsets from the messages alone, and verify the corrected trace.
#include <gtest/gtest.h>

#include "analysis/clock_sync.hpp"
#include "dynprof/launch.hpp"

namespace dyntrace::analysis {
namespace {

vt::Event ev(sim::TimeNs time, std::int32_t pid, vt::EventKind kind, std::int32_t code,
             std::int64_t aux = 0) {
  vt::Event e;
  e.time = time;
  e.pid = pid;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

TEST(ClockSync, SyntheticTwoProcessOffsetRecovered) {
  // True latency 10 us each way; process 1's clock is 50 us ahead.
  const sim::TimeNs off1 = sim::microseconds(50);
  vt::TraceStore store;
  for (int m = 0; m < 5; ++m) {
    const sim::TimeNs t = sim::milliseconds(m + 1);
    // 0 -> 1: send at t (clock 0 true), recv at t+10us+off1 (clock 1).
    store.append(ev(t, 0, vt::EventKind::kMsgSend, 1, 64));
    store.append(ev(t + sim::microseconds(10) + off1, 1, vt::EventKind::kMsgRecv, 0, 64));
    // 1 -> 0: send at t' (clock 1 = true + off1), recv at true+10us (clock 0).
    const sim::TimeNs u = sim::milliseconds(m + 1) + sim::microseconds(500);
    store.append(ev(u + off1, 1, vt::EventKind::kMsgSend, 0, 64));
    store.append(ev(u + sim::microseconds(10), 0, vt::EventKind::kMsgRecv, 1, 64));
  }
  // 1 -> 0 messages appear to arrive 40 us before they were sent.
  EXPECT_EQ(count_clock_violations(store), 5u);

  const ClockSyncResult result = estimate_clock_offsets(store);
  ASSERT_EQ(result.offsets.size(), 2u);
  EXPECT_EQ(result.offsets[0], 0);
  // Estimator: (minL(0->1) - minL(1->0))/2 = ((10+50) - (10-50))/2 = 50 us.
  EXPECT_EQ(result.offsets[1], off1);
  EXPECT_TRUE(result.unreachable.empty());

  const vt::TraceStore corrected = apply_clock_correction(store, result.offsets);
  EXPECT_EQ(count_clock_violations(corrected), 0u);
}

TEST(ClockSync, PerfectClocksNeedNoCorrection) {
  dynprof::Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 4;
  options.params.problem_scale = 0.15;
  options.policy = dynprof::Policy::kNone;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  EXPECT_EQ(count_clock_violations(*launch.trace()), 0u);
  const auto result = estimate_clock_offsets(*launch.trace());
  for (const auto off : result.offsets) {
    // Estimates bounded by latency asymmetry (jitter), far below 1 ms.
    EXPECT_LT(std::abs(off), sim::microseconds(100));
  }
}

TEST(ClockSync, InjectedSkewIsDetectedAndCorrected) {
  dynprof::Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 4;
  options.params.problem_scale = 0.15;
  options.policy = dynprof::Policy::kNone;
  options.clock_skew_stddev = sim::milliseconds(2);  // >> message latency
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();

  const auto before = count_clock_violations(*launch.trace());
  EXPECT_GT(before, 0u) << "2 ms skews must produce causality violations";

  const auto result = estimate_clock_offsets(*launch.trace());
  ASSERT_EQ(result.offsets.size(), 4u);
  const auto corrected = apply_clock_correction(*launch.trace(), result.offsets);
  const auto after = count_clock_violations(corrected);
  EXPECT_LT(after, before / 10) << "correction must remove nearly all violations";
}

TEST(ClockSync, EstimatePropagatesAcrossThePipeline) {
  // Sweep3d's ring only exchanges with neighbours: offsets for ranks 2 and
  // 3 are only reachable transitively from rank 0 -- the BFS must cover
  // them.
  dynprof::Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 4;
  options.params.problem_scale = 0.15;
  options.policy = dynprof::Policy::kNone;
  options.clock_skew_stddev = sim::milliseconds(1);
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  const auto result = estimate_clock_offsets(*launch.trace());
  EXPECT_TRUE(result.unreachable.empty());
  // At least one far rank got a non-trivial estimate.
  EXPECT_TRUE(std::abs(result.offsets[2]) > sim::microseconds(10) ||
              std::abs(result.offsets[3]) > sim::microseconds(10));
}

TEST(ClockSync, SingleProcessTraceIsTrivial) {
  vt::TraceStore store;
  store.append(ev(1, 0, vt::EventKind::kEnter, 0));
  const auto result = estimate_clock_offsets(store);
  EXPECT_TRUE(result.offsets.empty());
  EXPECT_EQ(count_clock_violations(store), 0u);
}

TEST(ClockSync, ProcessWithoutBidirectionalTrafficIsUnreachable) {
  vt::TraceStore store;
  // 0 <-> 1 bidirectional; 2 only ever sends.
  store.append(ev(100, 0, vt::EventKind::kMsgSend, 1, 8));
  store.append(ev(120, 1, vt::EventKind::kMsgRecv, 0, 8));
  store.append(ev(200, 1, vt::EventKind::kMsgSend, 0, 8));
  store.append(ev(220, 0, vt::EventKind::kMsgRecv, 1, 8));
  store.append(ev(300, 2, vt::EventKind::kMsgSend, 0, 8));
  store.append(ev(320, 0, vt::EventKind::kMsgRecv, 2, 8));
  const auto result = estimate_clock_offsets(store);
  ASSERT_EQ(result.offsets.size(), 3u);
  EXPECT_EQ(result.unreachable, (std::vector<std::int32_t>{2}));
  EXPECT_EQ(result.offsets[2], 0);  // left anchored
}

}  // namespace
}  // namespace dyntrace::analysis
