#include "spans.hpp"

#include "support/common.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

int SpanRecorder::begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  DT_ASSERT(!open_.empty() && open_.back() == index, "spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::vector<SpanRecorder::Totals> SpanRecorder::totals_per_root() const {
  // Children of one parent never overlap (one thread, properly nested), so
  // the time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) out.emplace_back();
    if (span.end_ns < 0 || out.empty()) continue;
    const std::int64_t duration = span.end_ns - span.start_ns;
    out.back().total_s[span.name] += static_cast<double>(duration) * 1e-9;
    out.back().self_s[span.name] += static_cast<double>(duration - child_ns[i]) * 1e-9;
  }
  return out;
}

std::string SpanRecorder::chrome_trace_json() const {
  using dyntrace::telemetry::Level;
  using dyntrace::telemetry::Registry;
  Registry registry(Level::kSpans);
  constexpr std::uint32_t kTrack = 0;
  registry.name_track(kTrack, "perfbench");
  // Replay the edges in nesting order: before a span begins, close every
  // open span that is not its ancestor.
  std::vector<int> stack;
  const auto close_top = [&] {
    const Span& top = spans_[static_cast<std::size_t>(stack.back())];
    registry.span_end(registry.span_name(top.name), kTrack, top.end_ns);
    stack.pop_back();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    while (!stack.empty() && stack.back() != span.parent) close_top();
    registry.span_begin(registry.span_name(span.name), kTrack, span.start_ns);
    stack.push_back(static_cast<int>(i));
  }
  while (!stack.empty()) close_top();
  return registry.chrome_trace_json();
}

}  // namespace perfbench
