// Golden values for the run driver: the trace and stats digests and the
// exact bits of the Figure 7 / Figure 9 metrics for one cell per policy and
// for the two-job shared-cluster scenario, with and without a job-scoped
// fault.  The values were recorded through the separate single-job and
// multi-job drivers that run() replaced; they must never change without a
// matching model change.  WindowGolden pins one 64-rank cell's parallel
// window schedule, which no digest can see.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynprof/run.hpp"
#include "fault/injector.hpp"
#include "../sim/window_counts.hpp"

namespace dyntrace::dynprof {
namespace {

struct Pin {
  std::uint64_t trace_digest;
  std::uint64_t stats_digest;
  std::uint64_t app_seconds_bits;
  std::uint64_t create_instrument_bits;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

void expect_pin(const Pin& pin, std::uint64_t trace_digest, std::uint64_t stats_digest,
                double app_seconds, double create_instrument_seconds,
                const std::string& cell) {
  const Pin got{trace_digest, stats_digest, std::bit_cast<std::uint64_t>(app_seconds),
                std::bit_cast<std::uint64_t>(create_instrument_seconds)};
  EXPECT_EQ(pin.trace_digest, got.trace_digest) << cell << " trace " << hex(got.trace_digest);
  EXPECT_EQ(pin.stats_digest, got.stats_digest) << cell << " stats " << hex(got.stats_digest);
  EXPECT_EQ(pin.app_seconds_bits, got.app_seconds_bits)
      << cell << " app_seconds " << hex(got.app_seconds_bits);
  EXPECT_EQ(pin.create_instrument_bits, got.create_instrument_bits)
      << cell << " create+instrument " << hex(got.create_instrument_bits);
}

struct CellCase {
  const char* app;
  Policy policy;
  int nprocs;
  Pin pin;
};

const CellCase kCells[] = {
    {"smg98", Policy::kFull, 8,
     {0x6a7069d5260b2e12ULL, 0xee78972134a97a59ULL, 0x4043256b7a2a1b3aULL, 0}},
    {"sppm", Policy::kSubset, 4,
     {0x64e79f61249e2ffcULL, 0x84000505e6b0bb10ULL, 0x401876db61877bd8ULL, 0}},
    {"sweep3d", Policy::kDynamic, 4,
     {0x4d61bce6fac3f44bULL, 0x587907f82255b101ULL, 0x402c1cb34cfc9093ULL,
      0x4035eeb95ee02407ULL}},
    {"umt98", Policy::kFullOff, 4,
     {0x79126822fe301f76ULL, 0x0ac5955d0b711c29ULL, 0x4029389bdecbdb69ULL, 0}},
    {"smg98", Policy::kAdaptive, 8,
     {0xddb563af9a9622b1ULL, 0xa242437ca5a9a3d2ULL, 0x4031c8327e9c2c0aULL,
      0x4044293d21151ae7ULL}},
    {"sweep3d", Policy::kNone, 4,
     {0x8acfc1f30879da68ULL, 0xf5d23d6d0375d965ULL, 0x402c1c1041ca2d69ULL, 0}},
};

TEST(RunGolden, SingleJobCellsMatchPinnedValues) {
  for (const CellCase& c : kCells) {
    RunSpec spec;
    spec.jobs = {{.app = asci::find_app(c.app),
                  .policy = c.policy,
                  .nprocs = c.nprocs,
                  .problem_scale = 0.05,
                  .seed = spec.seed}};
    const JobResult r = run(spec).jobs.front();
    expect_pin(c.pin, r.trace_digest, r.stats_digest, r.app_seconds,
               r.create_instrument_seconds,
               std::string(c.app) + "/" + to_string(c.policy) + "/" +
                   std::to_string(c.nprocs));
  }
}

/// The two-job scenario of test_multi_job.cpp: sppm Dynamic on CPUs 0-3 and
/// sweep3d Adaptive on CPUs 4-7 of the same nodes, scale 0.1, job seeds
/// drawn from the run seed.
RunResult run_two_jobs(const std::string& plan_text) {
  RunSpec spec;
  if (!plan_text.empty()) {
    spec.fault = std::make_shared<fault::FaultInjector>(fault::FaultPlan::parse(plan_text));
  }
  spec.jobs = {{.app = asci::find_app("sppm"),
                .name = "front",
                .policy = Policy::kDynamic,
                .nprocs = 4,
                .problem_scale = 0.1},
               {.app = asci::find_app("sweep3d"),
                .name = "back",
                .policy = Policy::kAdaptive,
                .nprocs = 4,
                .problem_scale = 0.1,
                .first_cpu = 4}};
  return run(spec);
}

void expect_two_jobs(const RunResult& r, const Pin (&pins)[2],
                     std::uint64_t combined, const std::string& scenario) {
  ASSERT_EQ(r.jobs.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    expect_pin(pins[j], r.jobs[j].trace_digest, r.jobs[j].stats_digest,
               r.jobs[j].app_seconds, r.jobs[j].create_instrument_seconds,
               scenario + "/" + r.jobs[j].job);
  }
  EXPECT_EQ(combined, r.combined_digest) << scenario << " combined " << hex(r.combined_digest);
}

TEST(RunGolden, TwoJobScenarioMatchesPinnedValues) {
  const Pin pins[2] = {{0xe0749c0608daf429ULL, 0xa10233a1e6c88f70ULL, 0x401786faf6df4d8cULL,
                        0x403596ff7e4b9b9bULL},
                       {0xdf2101bbfbf457d3ULL, 0x2083869646afc196ULL, 0x402c4d46d15be3e8ULL,
                        0x4035eeea38bf1f77ULL}};
  expect_two_jobs(run_two_jobs({}), pins, 0x0571c1b4d2a53a42ULL, "healthy");
}

TEST(RunGolden, TwoJobScenarioWithScopedKillMatchesPinnedValues) {
  // The kill silences back's rank 1 in the statistics reduction only; rank
  // 0's own table and every trace record are those of the healthy run.
  const Pin pins[2] = {{0xe0749c0608daf429ULL, 0xa10233a1e6c88f70ULL, 0x401786faf6df4d8cULL,
                        0x403596ff7e4b9b9bULL},
                       {0xdf2101bbfbf457d3ULL, 0x2083869646afc196ULL, 0x402c4d46d15be3e8ULL,
                        0x4035eeea38bf1f77ULL}};
  const RunResult r = run_two_jobs("seed 7\nkill-rank rank=1 at=0 job=back\n");
  expect_two_jobs(r, pins, 0x0571c1b4d2a53a42ULL, "kill-rank");
  EXPECT_TRUE(r.jobs[0].lost_ranks.empty());
  EXPECT_EQ(r.jobs[1].lost_ranks, std::vector<int>{1});
}

TEST(WindowGolden, Smg98FullScheduleIsPinned) {
  struct Case {
    int sim_threads;
    sim::WindowCounts pin;
  };
  const Case cases[] = {{2, {8367, 8365, 330}}, {4, {8491, 8489, 502}}};
  for (const Case& c : cases) {
    RunSpec spec;
    spec.sim_threads = c.sim_threads;
    spec.jobs = {{.app = asci::find_app("smg98"),
                  .policy = Policy::kFull,
                  .nprocs = 64,
                  .problem_scale = 0.05,
                  .seed = spec.seed}};
    sim::WindowCounts got;
    spec.on_complete = [&got](Launch& launch) {
      got = sim::window_counts(launch.parallel_engine());
    };
    run(spec);
    EXPECT_EQ(c.pin, got) << "sim_threads=" << c.sim_threads;
  }
}

}  // namespace
}  // namespace dyntrace::dynprof
