// The window schedule a parallel run leaves behind: windows(),
// fused_windows() and the summed cross-shard channel_deliveries().  Digests
// are shard-count invariant by construction, so only these counts see a
// changed window bound.
#pragma once

#include <cstdint>
#include <ostream>

#include "sim/parallel_engine.hpp"

namespace dyntrace::sim {

struct WindowCounts {
  std::uint64_t windows = 0;
  std::uint64_t fused = 0;
  std::uint64_t cross = 0;
  bool operator==(const WindowCounts&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const WindowCounts& c) {
  return os << "{" << c.windows << ", " << c.fused << ", " << c.cross << "}";
}

inline WindowCounts window_counts(const ParallelEngine& group) {
  WindowCounts counts{group.windows(), group.fused_windows(), 0};
  for (int src = 0; src < group.shard_count(); ++src) {
    for (int dst = 0; dst < group.shard_count(); ++dst) {
      if (src != dst) counts.cross += group.channel_deliveries(src, dst);
    }
  }
  return counts;
}

}  // namespace dyntrace::sim
