// Host-time spans recorded by the benchmark around its calls into each
// layer's public functions (name, start, end, parent).  Spans are kept in
// memory, exported at the end as Chrome trace-event JSON through the
// telemetry exporter, and folded into a per-layer self-time table: a
// span's self time is its duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanRecorder {
 public:
  /// A disabled recorder records nothing, so untraced rounds pay only a
  /// branch per call.
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  int begin(std::string name);
  void end(int index);

  /// Time `fn()` under a span named `name` and return its result.
  template <typename Fn>
  auto scoped(std::string name, Fn&& fn) {
    const int index = begin(std::move(name));
    struct Closer {
      SpanRecorder* recorder;
      int index;
      ~Closer() { recorder->end(index); }
    } closer{this, index};
    return fn();
  }

  /// Summed duration and self time per span name, in seconds, over the
  /// spans under each root (one map per root, in recording order).
  struct Totals {
    std::map<std::string, double> total_s;
    std::map<std::string, double> self_s;
  };
  std::vector<Totals> totals_per_root() const;

  /// Chrome trace-event JSON (the format telemetry::Registry exports for
  /// Perfetto), one track for the benchmark's thread.
  std::string chrome_trace_json() const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< host ns since the recorder was created
    std::int64_t end_ns = -1;   ///< -1 while open
    int parent = -1;            ///< index into spans_; -1 for a root
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
