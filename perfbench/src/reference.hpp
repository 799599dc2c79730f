// A fixed yardstick for the host's current speed.
//
// The reference host has phases of outside cache contention that slow the
// simulator by up to 2x for tens of seconds to minutes (README.md, "Host
// speed normalisation").  The benchmark runs this kernel between cells and
// scales every host time by nominal ÷ measured kernel time, so a slow phase
// cancels out instead of reading as a regression.  The kernel is a small
// discrete-event loop shaped like the simulator's hot path -- a binary-heap
// event queue, scattered per-actor state and a hash lookup per event over a
// working set larger than the last-level cache -- and its code belongs to
// the benchmark, so changes to the program never move it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  /// The kernel's time on the reference host in a quiet phase; scaled host
  /// times read as seconds at that speed.
  static constexpr double kNominalSeconds = 0.05;

  ReferenceKernel();

  /// Run the fixed event loop once; returns its host seconds.
  double run();

 private:
  struct Actor {
    std::uint64_t state[6];
    std::uint32_t peers[4];
  };
  std::vector<Actor> actors_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
