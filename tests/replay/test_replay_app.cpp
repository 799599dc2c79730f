// ReplayApp end-to-end: the shipped sample trace runs through every
// instrumentation policy with digests bit-identical across --sim-threads,
// and the fault-matrix control-plane columns hold on a replayed app.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "dynprof/run.hpp"
#include "dynprof/tool.hpp"
#include "fault/injector.hpp"
#include "replay/app.hpp"

namespace dyntrace::replay {
namespace {

/// The shipped sample (examples/replay/ring.trace), found from the common
/// ctest working directories (same idiom as tests/machine/test_configs).
std::string sample_path(const std::string& name) {
  for (const char* prefix : {"../../examples/replay/", "../../../examples/replay/",
                             "examples/replay/", "../examples/replay/"}) {
    const std::string path = prefix + name;
    if (std::ifstream(path).good()) return path;
  }
  ADD_FAILURE() << "cannot locate examples/replay/" << name;
  return name;
}

std::shared_ptr<ReplayApp> load_ring() { return load_app(sample_path("ring.trace")); }

TEST(ReplayApp, WrapsTheTraceAsAPinnedAppSpec) {
  const auto app = load_ring();
  const asci::AppSpec& spec = app->spec();
  EXPECT_EQ(spec.name, "ring");
  EXPECT_EQ(spec.min_procs, 4);
  EXPECT_EQ(spec.max_procs, 4);
  EXPECT_EQ(spec.model, asci::AppSpec::Model::kMpi);
  EXPECT_EQ(spec.subset, (std::vector<std::string>{"ring_compute", "ring_reduce"}));
  EXPECT_EQ(spec.dynamic_list, spec.subset);
  // main + MPI_Init + MPI_Finalize + 4 call functions.
  EXPECT_EQ(spec.symbols->all().size(), 7u);
  EXPECT_EQ(app->trace().skipped_events, 4u);  // one MPI_Comm_rank per rank
}

dynprof::JobResult run_ring(const asci::AppSpec& spec, dynprof::Policy policy,
                            int sim_threads) {
  dynprof::RunSpec run;
  run.jobs = {{.app = &spec, .policy = policy, .nprocs = spec.min_procs, .seed = 42}};
  run.sim_threads = sim_threads;
  return dynprof::run(run).jobs.front();
}

class ReplayPolicies : public ::testing::TestWithParam<dynprof::Policy> {};

TEST_P(ReplayPolicies, DigestsAreBitIdenticalAcrossSimThreads) {
  const auto app = load_ring();
  const dynprof::JobResult t1 = run_ring(app->spec(), GetParam(), 1);
  EXPECT_GT(t1.trace_digest, 0u);
  EXPECT_GT(t1.app_seconds, 0.0);
  for (const int threads : {2, 8}) {
    const dynprof::JobResult tn = run_ring(app->spec(), GetParam(), threads);
    EXPECT_EQ(t1.trace_digest, tn.trace_digest) << "sim-threads=" << threads;
    EXPECT_EQ(t1.stats_digest, tn.stats_digest) << "sim-threads=" << threads;
    EXPECT_EQ(t1.trace_events, tn.trace_events) << "sim-threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplayPolicies,
                         ::testing::Values(dynprof::Policy::kNone,
                                           dynprof::Policy::kSubset,
                                           dynprof::Policy::kDynamic,
                                           dynprof::Policy::kAdaptive));

TEST(ReplayApp, SubsetPolicySeesOnlyTheSubsetFunctions) {
  const auto app = load_ring();
  const dynprof::JobResult full = run_ring(app->spec(), dynprof::Policy::kFull, 1);
  const dynprof::JobResult subset =
      run_ring(app->spec(), dynprof::Policy::kSubset, 1);
  // ring_setup/ring_teardown are outside the subset directive.
  EXPECT_LT(subset.trace_events, full.trace_events);
  EXPECT_GT(subset.trace_events, 0u);
}

/// The fault-matrix column for replayed apps: control-plane faults during a
/// Dynamic run of the sample trace, deterministic across --sim-threads.
struct FaultCell {
  bool tool_finished = false;
  std::uint64_t digest = 0;
  std::string report;
  std::vector<int> lost_ranks;
};

FaultCell run_fault_cell(const asci::AppSpec& spec, const std::string& plan_text,
                         int sim_threads) {
  auto injector =
      std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(plan_text));
  dynprof::Launch::Options options;
  options.app = &spec;
  options.params.nprocs = spec.min_procs;
  options.policy = dynprof::Policy::kDynamic;
  options.sim_threads = sim_threads;
  options.fault = injector;
  dynprof::Launch launch(std::move(options));

  dynprof::DynprofTool::Options topt;
  topt.command_files = {{"subset", spec.dynamic_list}};
  dynprof::DynprofTool tool(launch, std::move(topt));
  tool.run_script(dynprof::parse_script("insert-file subset\nstart\nquit\n"));
  launch.run_engine();

  FaultCell cell;
  cell.tool_finished = tool.finished();
  cell.digest = launch.trace()->digest();
  cell.report = injector->report().render();
  cell.lost_ranks = injector->report().lost_ranks();
  return cell;
}

class ReplayFaultMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayFaultMatrix, ControlPlaneFaultsStayDeterministic) {
  const auto app = load_ring();
  const FaultCell t1 = run_fault_cell(app->spec(), GetParam(), 1);
  EXPECT_TRUE(t1.tool_finished);
  EXPECT_TRUE(t1.lost_ranks.empty());
  EXPECT_GT(t1.digest, 0u);
  for (const int threads : {2, 8}) {
    const FaultCell tn = run_fault_cell(app->spec(), GetParam(), threads);
    EXPECT_TRUE(tn.tool_finished) << "sim-threads=" << threads;
    EXPECT_EQ(t1.digest, tn.digest) << "sim-threads=" << threads;
    EXPECT_EQ(t1.report, tn.report) << "sim-threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ReplayFaultMatrix,
    ::testing::Values("seed 12\ndrop channel=daemon prob=0.05\n",
                      "seed 13\ndup channel=daemon prob=0.5\n",
                      "seed 14\ndelay channel=daemon factor=10 prob=1.0\n"));

TEST(ReplayApp, PingpongSampleParsesAndRuns) {
  const auto app = load_app(sample_path("pingpong.trace"));
  EXPECT_EQ(app->spec().min_procs, 2);
  const dynprof::JobResult r = run_ring(app->spec(), dynprof::Policy::kFull, 1);
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_GT(r.app_seconds, 0.0);
}

}  // namespace
}  // namespace dyntrace::replay
