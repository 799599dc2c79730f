#include "reference.hpp"

#include <functional>
#include <queue>
#include <utility>

#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kActors = std::size_t{1} << 20;  // 64 MiB of actor state
constexpr std::size_t kTableEntries = kActors / 4;
constexpr int kInFlight = 4096;
constexpr int kEvents = 50'000;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

}  // namespace

ReferenceKernel::ReferenceKernel() : actors_(kActors) {
  for (std::size_t i = 0; i < kActors; ++i) {
    for (int k = 0; k < 6; ++k) actors_[i].state[k] = i * 31 + static_cast<std::uint64_t>(k);
    for (int k = 0; k < 4; ++k) {
      actors_[i].peers[k] = static_cast<std::uint32_t>((i * 2654435761u + k * 40503u) % kActors);
    }
  }
  table_.reserve(kTableEntries);
  for (std::size_t i = 0; i < kTableEntries; ++i) table_[i * kGolden] = i;
}

double ReferenceKernel::run() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, actor)
  const Clock::time_point start = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (std::uint32_t i = 0; i < kInFlight; ++i) queue.push({i, (i * 7919u) % kActors});
  for (int e = 0; e < kEvents; ++e) {
    const auto [time, id] = queue.top();
    queue.pop();
    Actor& actor = actors_[id];
    actor.state[e % 6] += time ^ actor.state[(e + 1) % 6];
    const std::uint64_t h = actor.state[0] * kGolden;
    const auto it = table_.find((h % kTableEntries) * kGolden);
    if (it != table_.end()) sink_ += it->second;
    queue.push({time + 1 + h % 97, actor.peers[h & 3]});
  }
  return seconds_between(start, Clock::now());
}

}  // namespace perfbench
