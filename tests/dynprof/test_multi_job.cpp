// Multi-job runs: heterogeneous jobs sharing one simulated cluster
// (DESIGN.md §15) -- shared-node tenancy, per-job tool sessions, job-scoped
// fault verbs, and scenario-wide bit-identity across --sim-threads.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "dynprof/run.hpp"
#include "fault/injector.hpp"
#include "replay/app.hpp"

namespace dyntrace::dynprof {
namespace {

constexpr double kScale = 0.1;

/// Two jobs sharing node 0: "front" (sppm, Dynamic) on CPUs 0-3, "back"
/// (sweep3d, Adaptive) on CPUs 4-7 of the same nodes.
RunSpec two_job_spec(int sim_threads, const std::string& plan_text = {}) {
  RunSpec spec;
  spec.sim_threads = sim_threads;
  if (!plan_text.empty()) {
    spec.fault = std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(plan_text));
  }
  spec.jobs = {{.app = asci::find_app("sppm"),
                .name = "front",
                .policy = Policy::kDynamic,
                .nprocs = 4,
                .problem_scale = kScale},
               {.app = asci::find_app("sweep3d"),
                .name = "back",
                .policy = Policy::kAdaptive,
                .nprocs = 4,
                .problem_scale = kScale,
                .first_cpu = 4}};
  return spec;
}

/// The same shape with a control plane that runs: "back" is smg98, which
/// offers safe points (sweep3d offers none), so its Adaptive controller
/// sees confsyncs and the statistics reduction a job-scoped kill reaches.
RunSpec control_plane_spec(const std::string& plan_text = {}) {
  RunSpec spec = two_job_spec(1, plan_text);
  spec.jobs[1].app = asci::find_app("smg98");
  return spec;
}

TEST(MultiJob, SharedNodeJobsCompleteAndReportPerJob) {
  RunSpec spec = two_job_spec(1);
  // Both jobs span node 0 (4 one-cpu ranks each fit its 8 cpus), so the
  // node carries two tenants and messages touching it pay the surcharge.
  std::vector<int> node0_tenants;
  spec.on_complete = [&](Launch& launch) {
    node0_tenants.push_back(launch.cluster().node_tenants(0));
  };
  const RunResult result = run(spec);
  EXPECT_EQ(node0_tenants, (std::vector<int>{2, 2}));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].job, "front");
  EXPECT_EQ(result.jobs[1].job, "back");
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.nprocs, 4) << job.job;
    EXPECT_GT(job.app_seconds, 0.0) << job.job;
    EXPECT_GT(job.trace_events, 0u) << job.job;
    EXPECT_GT(job.create_instrument_seconds, 0.0) << job.job;
    EXPECT_FALSE(job.timefile.empty()) << job.job;  // each job ran its own tool
    EXPECT_TRUE(job.lost_ranks.empty()) << job.job;
  }
  EXPECT_NE(result.jobs[0].trace_digest, result.jobs[1].trace_digest);
  EXPECT_GT(result.combined_digest, 0u);
}

TEST(MultiJob, ScenarioDigestIsBitIdenticalAcrossSimThreads) {
  const RunResult t1 = run(two_job_spec(1));
  for (const int threads : {2, 8}) {
    const RunResult tn = run(two_job_spec(threads));
    EXPECT_EQ(t1.combined_digest, tn.combined_digest) << "sim-threads=" << threads;
    for (std::size_t j = 0; j < t1.jobs.size(); ++j) {
      EXPECT_EQ(t1.jobs[j].trace_digest, tn.jobs[j].trace_digest)
          << t1.jobs[j].job << " sim-threads=" << threads;
      EXPECT_EQ(t1.jobs[j].stats_digest, tn.jobs[j].stats_digest)
          << t1.jobs[j].job << " sim-threads=" << threads;
    }
  }
}

TEST(MultiJob, CrossJobFaultPlanScopesToTheNamedJob) {
  // kill-rank job=back names the Adaptive job's rank space: its stats
  // reduction loses rank 1 while the front job keeps every rank.
  const std::string plan = "seed 7\nkill-rank rank=1 at=0 job=back\n";
  const RunResult t1 = run(two_job_spec(1, plan));
  ASSERT_EQ(t1.jobs.size(), 2u);
  EXPECT_TRUE(t1.jobs[0].lost_ranks.empty());
  EXPECT_EQ(t1.jobs[1].lost_ranks, std::vector<int>{1});
  for (const int threads : {2, 8}) {
    const RunResult tn = run(two_job_spec(threads, plan));
    EXPECT_EQ(t1.combined_digest, tn.combined_digest) << "sim-threads=" << threads;
    EXPECT_EQ(tn.jobs[1].lost_ranks, std::vector<int>{1});
  }
}

TEST(MultiJob, AdaptiveJobOnASharedNodeRunsItsControlPlane) {
  const RunResult r = run(control_plane_spec());
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_EQ(r.jobs[0].confsyncs, 0u);  // Dynamic: no safe points
  EXPECT_GT(r.jobs[1].confsyncs, 0u);
  EXPECT_FALSE(r.jobs[1].decisions.decisions.empty());
}

TEST(MultiJob, ScopedKillChangesOnlyTheNamedJobsRun) {
  // Both runs carry an injector, so both reduce through the fault-tolerant
  // overlay path and differ only by the kill.  The kill re-parents back's
  // statistics reduction around rank 1, which retimes back's safe points
  // and so its trace.  Rank 0's own statistics table (the stats digest)
  // does not carry the reduced records, so it is no witness here.  The
  // front job shares node 0 but none of back's ranks or reduction, and its
  // run is untouched.
  const RunResult healthy = run(control_plane_spec("seed 7\n"));
  const RunResult killed = run(control_plane_spec("seed 7\nkill-rank rank=1 at=0 job=back\n"));
  ASSERT_EQ(killed.jobs.size(), 2u);
  EXPECT_TRUE(killed.jobs[0].lost_ranks.empty());
  EXPECT_EQ(killed.jobs[1].lost_ranks, std::vector<int>{1});
  EXPECT_GT(killed.jobs[1].confsyncs, 0u);
  EXPECT_NE(healthy.jobs[1].trace_digest, killed.jobs[1].trace_digest);
  EXPECT_EQ(healthy.jobs[0].trace_digest, killed.jobs[0].trace_digest);
  EXPECT_EQ(healthy.jobs[0].stats_digest, killed.jobs[0].stats_digest);
}

TEST(MultiJob, UnscopedKillRankHitsEveryJobsRankSpace) {
  const RunResult r = run(two_job_spec(1, "seed 7\nkill-rank rank=1 at=0\n"));
  EXPECT_EQ(r.jobs[0].lost_ranks, std::vector<int>{1});
  EXPECT_EQ(r.jobs[1].lost_ranks, std::vector<int>{1});
}

TEST(MultiJob, DegradedSharedNodeQuarantinesOnlyThatJobsTool) {
  // degrade-daemon is node-scoped and physical: node 0 hosts both jobs'
  // daemons.  Only the front job drives mid-run requests into it, so only
  // the front tool's breaker opens (quarantine), and nobody loses ranks.
  RunSpec spec = two_job_spec(1, "seed 17\ndegrade-daemon node=0 factor=200 from=0\n");
  spec.jobs[0].script = "insert-file subset\nstart\nwait 5\ninsert-file subset\nquit\n";
  const RunResult result = run(spec);
  EXPECT_TRUE(result.jobs[0].lost_ranks.empty());
  EXPECT_TRUE(result.jobs[1].lost_ranks.empty());
  EXPECT_GE(result.jobs[0].degradations.size(), 1u);
  EXPECT_GT(result.combined_digest, 0u);
}

TEST(MultiJob, ReplayJobSharesTheClusterWithAKernelJob) {
  const auto trace_path = [] {
    for (const char* prefix : {"../../examples/replay/", "../../../examples/replay/",
                               "examples/replay/", "../examples/replay/"}) {
      const std::string path = std::string(prefix) + "ring.trace";
      if (std::ifstream(path).good()) return path;
    }
    return std::string("ring.trace");
  }();
  const auto replay_app = replay::load_app(trace_path);

  auto make = [&](int threads) {
    RunSpec spec;
    spec.sim_threads = threads;
    spec.jobs = {{.app = &replay_app->spec(),
                  .name = "recorded",
                  .policy = Policy::kDynamic,
                  .nprocs = replay_app->spec().min_procs},
                 {.app = asci::find_app("sppm"),
                  .name = "kernel",
                  .policy = Policy::kNone,
                  .nprocs = 4,
                  .problem_scale = kScale,
                  .first_cpu = 4}};
    return spec;
  };

  const RunResult t1 = run(make(1));
  ASSERT_EQ(t1.jobs.size(), 2u);
  EXPECT_GT(t1.jobs[0].trace_events, 0u);
  EXPECT_GT(t1.jobs[1].trace_events, 0u);
  const RunResult t8 = run(make(8));
  EXPECT_EQ(t1.combined_digest, t8.combined_digest);
}

TEST(MultiJob, RejectsDuplicateJobNames) {
  RunSpec spec = two_job_spec(1);
  spec.jobs[1].name = "front";
  EXPECT_THROW(run(spec), Error);
}

}  // namespace
}  // namespace dyntrace::dynprof
