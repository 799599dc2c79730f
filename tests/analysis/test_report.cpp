#include <gtest/gtest.h>

#include "analysis/report.hpp"

#include "dynprof/launch.hpp"

namespace dyntrace::analysis {
namespace {

vt::Event ev(sim::TimeNs time, std::int32_t pid, vt::EventKind kind, std::int32_t code = 0,
             std::int64_t aux = 0) {
  vt::Event e;
  e.time = time;
  e.pid = pid;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

TEST(CommMatrix, AccumulatesBytesBySrcDst) {
  vt::TraceStore store;
  store.append(ev(1, 0, vt::EventKind::kMsgSend, 1, 1000));
  store.append(ev(2, 0, vt::EventKind::kMsgSend, 1, 500));
  store.append(ev(3, 1, vt::EventKind::kMsgSend, 2, 2048));
  store.append(ev(4, 2, vt::EventKind::kEnter, 0));  // widens nprocs to 3
  const CommMatrix matrix = communication_matrix(store);
  EXPECT_EQ(matrix.nprocs, 3);
  EXPECT_EQ(matrix.at(0, 1), 1500);
  EXPECT_EQ(matrix.at(1, 2), 2048);
  EXPECT_EQ(matrix.at(2, 0), 0);
  EXPECT_EQ(matrix.total(), 3548);
  const std::string rendered = matrix.render();
  EXPECT_NE(rendered.find("src\\dst"), std::string::npos);
}

TEST(CommMatrix, EmptyTrace) {
  vt::TraceStore store;
  const CommMatrix matrix = communication_matrix(store);
  EXPECT_EQ(matrix.nprocs, 0);
  EXPECT_EQ(matrix.total(), 0);
}

TEST(LoadBalance, PerfectBalanceIsOne) {
  vt::TraceStore store;
  for (int pid = 0; pid < 4; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(sim::seconds(2), pid, vt::EventKind::kLeave, 1));
  }
  const LoadBalance balance = load_balance(store);
  ASSERT_EQ(balance.busy_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(balance.mean, 2.0);
  EXPECT_DOUBLE_EQ(balance.imbalance, 1.0);
}

TEST(LoadBalance, StragglerRaisesImbalance) {
  vt::TraceStore store;
  for (int pid = 0; pid < 4; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 1));
    store.append(ev(sim::seconds(pid == 3 ? 4 : 1), pid, vt::EventKind::kLeave, 1));
  }
  const LoadBalance balance = load_balance(store);
  EXPECT_DOUBLE_EQ(balance.max, 4.0);
  EXPECT_DOUBLE_EQ(balance.min, 1.0);
  EXPECT_NEAR(balance.imbalance, 4.0 / 1.75, 1e-9);
}

TEST(LoadBalance, MpiTimeCountsAsBusy) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kMpiBegin, 4));
  store.append(ev(sim::seconds(3), 0, vt::EventKind::kMpiEnd, 4));
  const LoadBalance balance = load_balance(store);
  ASSERT_EQ(balance.busy_seconds.size(), 1u);
  EXPECT_DOUBLE_EQ(balance.busy_seconds[0], 3.0);
}

TEST(SummaryReport, ContainsAllSections) {
  vt::TraceStore store;
  image::SymbolTable symbols;
  symbols.add("kernel");
  for (int pid = 0; pid < 2; ++pid) {
    store.append(ev(0, pid, vt::EventKind::kEnter, 0));
    store.append(ev(sim::seconds(1), pid, vt::EventKind::kLeave, 0));
    store.append(ev(100, pid, vt::EventKind::kMsgSend, 1 - pid, 4096));
  }
  const std::string report = summary_report(store, &symbols);
  EXPECT_NE(report.find("trace summary"), std::string::npos);
  EXPECT_NE(report.find("kernel"), std::string::npos);
  EXPECT_NE(report.find("communication matrix"), std::string::npos);
  EXPECT_NE(report.find("load balance"), std::string::npos);
}


TEST(OmpRegions, ProfilesMasterAndWorkerSpans) {
  vt::TraceStore store;
  // Region 5 executed twice: master spans 100 + 200; one worker 80 + 150.
  store.append(ev(0, 0, vt::EventKind::kParallelBegin, 5, /*team=*/4));
  store.append(ev(10, 0, vt::EventKind::kWorkerBegin, 5));
  store.append(ev(90, 0, vt::EventKind::kWorkerEnd, 5));
  store.append(ev(100, 0, vt::EventKind::kParallelEnd, 5));
  store.append(ev(1000, 0, vt::EventKind::kParallelBegin, 5, 4));
  store.append(ev(1010, 0, vt::EventKind::kWorkerBegin, 5));
  store.append(ev(1160, 0, vt::EventKind::kWorkerEnd, 5));
  store.append(ev(1200, 0, vt::EventKind::kParallelEnd, 5));
  const auto profiles = omp_region_profiles(store);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].region_id, 5);
  EXPECT_EQ(profiles[0].executions, 2u);
  EXPECT_EQ(profiles[0].master_span, 300);
  EXPECT_EQ(profiles[0].worker_span, 230);
  EXPECT_EQ(profiles[0].max_team_size, 4);
}

TEST(OmpRegions, SortedByMasterSpanDescending) {
  vt::TraceStore store;
  store.append(ev(0, 0, vt::EventKind::kParallelBegin, 1, 2));
  store.append(ev(50, 0, vt::EventKind::kParallelEnd, 1));
  store.append(ev(100, 0, vt::EventKind::kParallelBegin, 2, 2));
  store.append(ev(900, 0, vt::EventKind::kParallelEnd, 2));
  const auto profiles = omp_region_profiles(store);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].region_id, 2);
  EXPECT_EQ(profiles[1].region_id, 1);
  const std::string table = render_omp_regions(profiles);
  EXPECT_NE(table.find("master span"), std::string::npos);
}

TEST(OmpRegions, RealUmt98TraceHasRegionProfiles) {
  dynprof::Launch::Options options;
  options.app = &asci::umt98();
  options.params.nprocs = 4;
  options.params.problem_scale = 0.2;
  options.policy = dynprof::Policy::kNone;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  const auto profiles = omp_region_profiles(*launch.trace());
  ASSERT_FALSE(profiles.empty());
  std::uint64_t executions = 0;
  for (const auto& p : profiles) {
    executions += p.executions;
    EXPECT_EQ(p.max_team_size, 4);
    EXPECT_GT(p.master_span, 0);
    EXPECT_GT(p.worker_span, 0);
    // Workers live inside the master's span (3 workers, each shorter).
    EXPECT_LT(p.worker_span, p.master_span * 3);
  }
  EXPECT_GT(executions, 0u);
  // The summary report picks the section up.
  const auto report = summary_report(*launch.trace(), asci::umt98().symbols.get());
  EXPECT_NE(report.find("OpenMP parallel regions"), std::string::npos);
}

}  // namespace
}  // namespace dyntrace::analysis
