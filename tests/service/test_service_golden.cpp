// Golden values for the control service under congestion: the admission
// queue fills, queued instrument requests succeed on later retry passes, and
// the overload bounds shed and cancel from inside the retry pass.  Any change
// to admission pricing, the queue or its retry order moves these values, so
// they pin the service's observable behaviour across refactors of that code.
#include "service/scenario.hpp"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

namespace dyntrace::service {
namespace {

struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t stats_digest = 0;
  std::map<Status, std::uint64_t> status_counts;
  std::uint64_t fairshare_flips = 0;
  std::uint64_t shed_commands = 0;
  std::uint64_t deadline_cancels = 0;
  std::size_t windows = 0;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  os << "{0x" << std::hex << g.digest << "ull, 0x" << g.stats_digest << std::dec << "ull, {";
  for (const auto& [status, count] : g.status_counts) {
    os << "{Status(" << static_cast<int>(status) << ") /*" << to_string(status) << "*/, "
       << count << "}, ";
  }
  return os << "}, " << g.fairshare_flips << ", " << g.shed_commands << ", "
            << g.deadline_cancels << ", " << g.windows << "}";
}

Golden golden(const ScenarioResult& r) {
  return Golden{r.digest,        r.stats_digest,     r.status_counts, r.fairshare_flips,
                r.shed_commands, r.deadline_cancels, r.windows.size()};
}

/// 600 lock-step sessions over 32 functions: the 5% budget fills early, so
/// later instrument requests wait in the admission queue; about half of the
/// 563 grants are made by retry passes after detaches and safe points.
ScenarioOptions congested() {
  ScenarioOptions options;
  options.ranks = 8;
  options.functions = 32;
  options.sessions = 600;
  options.session_nodes = 16;
  options.commands_per_session = 4;
  options.seed = 3;
  return options;
}

TEST(ServiceGolden, CongestedQueueIsPinned) {
  const Golden want{0x84579fa32b058a8eull,
                    0x8b8092392687744aull,
                    {{Status::kOk, 3037}, {Status::kAdmitted, 200}, {Status::kDegraded, 363}},
                    /*fairshare_flips=*/0,
                    /*shed_commands=*/0,
                    /*deadline_cancels=*/0,
                    /*windows=*/8};
  EXPECT_EQ(golden(run_scenario(congested())), want);
}

/// The same load with a 64-entry queue and a 500 ms request deadline: the
/// full queue sheds, and retry passes both grant queued requests and cancel
/// the ones past their deadline (the rest of the cancels are patches that
/// land late).
TEST(ServiceGolden, ShedAndDeadlineCancelsArePinned) {
  ScenarioOptions options = congested();
  options.service.max_queue_depth = 64;
  options.service.request_deadline = sim::milliseconds(500);
  const Golden want{0xe0b8a7c24449855full,
                    0x544eb23d5d442efbull,
                    {{Status::kOk, 3037},
                     {Status::kAdmitted, 162},
                     {Status::kDegraded, 105},
                     {Status::kShed, 209},
                     {Status::kCanceled, 87}},
                    /*fairshare_flips=*/0,
                    /*shed_commands=*/209,
                    /*deadline_cancels=*/87,
                    /*windows=*/6};
  EXPECT_EQ(golden(run_scenario(options)), want);
}

TEST(ServiceGolden, CongestedQueueOnTwoShardsIsPinned) {
  ScenarioOptions options = congested();
  options.sim_threads = 2;
  // Cross-shard delivery is latency-exact, so two shards reproduce the
  // sequential run bit for bit.
  const Golden want{0x84579fa32b058a8eull,
                    0x8b8092392687744aull,
                    {{Status::kOk, 3037}, {Status::kAdmitted, 200}, {Status::kDegraded, 363}},
                    /*fairshare_flips=*/0,
                    /*shed_commands=*/0,
                    /*deadline_cancels=*/0,
                    /*windows=*/8};
  EXPECT_EQ(golden(run_scenario(options)), want);
}

}  // namespace
}  // namespace dyntrace::service
