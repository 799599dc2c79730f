// Whole-stack bit-identity of the conservative parallel engine: the same
// configuration must produce the same trace, statistics, timings, and
// controller decisions for every sim_threads value (DESIGN.md §8).
#include <gtest/gtest.h>

#include <string>

#include "dynprof/run.hpp"
#include "dynprof/tool.hpp"
#include "mpi/world.hpp"
#include "sim/parallel_engine.hpp"

namespace dyntrace::dynprof {
namespace {

JobResult run_cell(const asci::AppSpec& app, Policy policy, int nprocs, int sim_threads,
                   double scale) {
  RunSpec spec;
  spec.jobs = {
      {.app = &app, .policy = policy, .nprocs = nprocs, .problem_scale = scale, .seed = 42}};
  spec.sim_threads = sim_threads;
  return run(spec).jobs.front();
}

void expect_identical(const JobResult& seq, const JobResult& par, int threads) {
  const std::string label = "sim_threads=" + std::to_string(threads);
  EXPECT_EQ(seq.trace_digest, par.trace_digest) << label;
  EXPECT_EQ(seq.stats_digest, par.stats_digest) << label;
  EXPECT_DOUBLE_EQ(seq.app_seconds, par.app_seconds) << label;
  EXPECT_DOUBLE_EQ(seq.total_seconds, par.total_seconds) << label;
  EXPECT_DOUBLE_EQ(seq.create_instrument_seconds, par.create_instrument_seconds) << label;
  EXPECT_EQ(seq.trace_events, par.trace_events) << label;
  EXPECT_EQ(seq.filtered_events, par.filtered_events) << label;
  EXPECT_EQ(seq.confsyncs, par.confsyncs) << label;
  ASSERT_EQ(seq.decisions.decisions.size(), par.decisions.decisions.size()) << label;
  for (std::size_t i = 0; i < seq.decisions.decisions.size(); ++i) {
    const auto& a = seq.decisions.decisions[i];
    const auto& b = par.decisions.decisions[i];
    EXPECT_EQ(a.sync, b.sync) << label;
    EXPECT_EQ(a.time, b.time) << label;
    EXPECT_EQ(a.deactivated, b.deactivated) << label;
    EXPECT_EQ(a.reactivated, b.reactivated) << label;
  }
}

TEST(ParallelDeterminism, AdaptiveSmg98BitIdenticalAcrossSimThreads) {
  // The ISSUE's headline check: the full adaptive control plane -- dynamic
  // instrumentation, confsync safe points, the budget controller, and the
  // stats-reduction overlay -- at 64 ranks, sequential vs parallel.
  const JobResult seq =
      run_cell(asci::smg98(), Policy::kAdaptive, 64, /*sim_threads=*/1, 0.05);
  EXPECT_GT(seq.trace_events, 0u);
  EXPECT_GT(seq.confsyncs, 0u);
  for (const int threads : {2, 4, 8}) {
    const JobResult par =
        run_cell(asci::smg98(), Policy::kAdaptive, 64, threads, 0.05);
    expect_identical(seq, par, threads);
  }
}

TEST(ParallelDeterminism, DynamicSweep3dBitIdenticalAcrossSimThreads) {
  // The dynprof tool path: POE create, DPCL daemons, the Figure-6 init
  // hook, insert-file, release -- all crossing shards.
  const JobResult seq =
      run_cell(asci::sweep3d(), Policy::kDynamic, 8, /*sim_threads=*/1, 0.15);
  EXPECT_GT(seq.trace_events, 0u);
  EXPECT_GT(seq.create_instrument_seconds, 0.0);
  for (const int threads : {2, 4}) {
    const JobResult par =
        run_cell(asci::sweep3d(), Policy::kDynamic, 8, threads, 0.15);
    expect_identical(seq, par, threads);
  }
}

TEST(ParallelDeterminism, StaticPoliciesBitIdenticalAcrossSimThreads) {
  for (const Policy policy : {Policy::kFull, Policy::kNone}) {
    const JobResult seq = run_cell(asci::sppm(), policy, 16, 1, 0.1);
    const JobResult par = run_cell(asci::sppm(), policy, 16, 4, 0.1);
    expect_identical(seq, par, 4);
  }
}

TEST(ParallelDeterminism, MixedModeBitIdenticalAcrossSimThreads) {
  const JobResult seq = run_cell(asci::umt98(), Policy::kFull, 4, 1, 0.2);
  const JobResult par = run_cell(asci::umt98(), Policy::kFull, 4, 2, 0.2);
  expect_identical(seq, par, 2);
}

TEST(ParallelDeterminism, CrossShardMismatchedReceiveIsDiagnosedAsDeadlock) {
  // The sequential diagnosis must survive sharding: a rank blocked on a
  // message nobody sends is reported by name even when sender and receiver
  // live on different shards.
  sim::ParallelEngine group(2);
  machine::Cluster cluster(group, machine::ibm_power3_sp());
  ASSERT_GT(group.lookahead(), 0);
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "mismatched");
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  for (int pid = 0; pid < 2; ++pid) {
    // One rank per node: node pid maps to shard pid % 2.
    world.add_rank(job.add_process(image::ProgramImage(symbols), /*node=*/pid, /*cpu=*/0));
  }
  job.set_main(0, [&world](proc::SimThread& t) -> sim::Coro<void> {
    co_await world.rank(0).init(t);
    co_await world.rank(0).recv(t, 1, /*tag=*/999, nullptr);  // never sent
  });
  job.set_main(1, [&world](proc::SimThread& t) -> sim::Coro<void> {
    co_await world.rank(1).init(t);
  });
  job.start();
  try {
    group.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("rank0"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace dyntrace::dynprof
