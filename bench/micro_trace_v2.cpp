// Trace format v2 payoff on the smg98 Full cell (ISSUE 8).
//
// One simulated smg98 Full run supplies the event stream; the bench then
// replays it through the spill path in both encodings and measures what
// the v2 format claims: bytes/event (varint deltas + dictionaries +
// redundancy suppression vs 36-byte CRC frames), encode ns/event (and the
// v2/v1 encode ratio, reported only), and k-way merge throughput reading
// the spilled runs back.  Emits BENCH_trace.json.  Shape checks (the
// format's acceptance bar): v2 spends >= 4x fewer bytes/event, merges >= 2x
// faster, and both formats merge to bit-identical digests -- including the
// fig7a statistics digest from two full policy runs.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynprof/policy.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_format.hpp"
#include "vt/trace_store.hpp"

namespace {

using namespace dyntrace;

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

struct BestOf {
  double best_s = 1e30;
  void add(double s) { best_s = s < best_s ? s : best_s; }
};

struct FormatNumbers {
  double bytes_per_event = 0;
  double encode_ns_per_event = 0;
  double merge_events_per_s = 0;
  double merge_mb_per_s = 0;
  std::uint64_t digest = 0;
  vt::TraceStore::VolumeStats volume;
};

/// Replay the cell's events through per-pid shards with a small spill
/// budget, so the merge below reads encoded runs back from disk.
vt::TraceStore build_spilled_store(const std::vector<vt::Event>& events,
                                   vt::TraceFormat format) {
  vt::TraceStore::Options options;
  options.spill_budget_bytes = std::size_t{1} << 12;  // 128-event runs
  options.spill_dir = "";                             // system temp
  options.format = format;
  vt::TraceStore store(options);
  for (const auto& e : events) store.append(e);
  return store;
}

/// Best-of encode ns/event of one format (the spill-time cost).
FormatNumbers measure_encode(const std::vector<vt::Event>& events, vt::TraceFormat format,
                             int reps) {
  FormatNumbers out;

  BestOf encode;
  for (int rep = 0; rep < reps; ++rep) {
    const auto begin = std::chrono::steady_clock::now();
    if (format == vt::TraceFormat::kV1) {
      std::uint8_t frame[vt::kSpillFrameBytes];
      std::uint64_t checksum = 0;
      for (const auto& e : events) {
        vt::encode_spill_frame(e, frame);
        checksum += frame[0];
      }
      if (checksum == 0) std::fputc(' ', stderr);  // keep the loop live
    } else {
      // One block per call into a buffer cleared each time, as the spill
      // path does: the loop times the encoder, not output-vector growth.
      vt::SuppressionTable table(1024);
      std::vector<std::uint8_t> bytes;
      for (std::size_t i = 0; i < events.size(); i += vt::kBlockRecords) {
        const std::size_t n = std::min(vt::kBlockRecords, events.size() - i);
        bytes.clear();
        vt::encode_v2_blocks(events.data() + i, n, &table, bytes);
      }
    }
    encode.add(seconds_since(begin));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  out.encode_ns_per_event = encode.best_s * 1e9 / static_cast<double>(events.size());

  return out;
}

/// One timed k-way merge over a spilled store's runs.  Cursor construction
/// (one open(2) per run, slow and noisy on overlay filesystems) stays
/// outside the timed window: the gate compares decode + merge throughput,
/// which is what the format change affects.
double merge_seconds(const vt::TraceStore& store, std::size_t expected) {
  auto cursor = store.merge_cursor();
  const auto begin = std::chrono::steady_clock::now();
  vt::Event e;
  std::uint64_t drained = 0;
  while (cursor->next(e)) ++drained;
  const double seconds = seconds_since(begin);
  if (drained != expected) {
    std::fprintf(stderr, "merge drained %llu of %zu events\n",
                 static_cast<unsigned long long>(drained), expected);
    std::exit(1);
  }
  std::fprintf(stderr, ".");
  std::fflush(stderr);
  return seconds;
}

/// Bytes/event and best-of merge throughput through the real shard path.
/// The formats' merges alternate rep by rep, so a change in host speed
/// during the run (other tenants, frequency) hits both sides of the ratio
/// the gate checks, not just one.
void measure_merges(const std::vector<vt::Event>& events, int reps, FormatNumbers& v1,
                    FormatNumbers& v2) {
  const vt::TraceStore store1 = build_spilled_store(events, vt::TraceFormat::kV1);
  const vt::TraceStore store2 = build_spilled_store(events, vt::TraceFormat::kV2);
  BestOf merge1, merge2;
  for (int rep = 0; rep < reps; ++rep) {
    merge1.add(merge_seconds(store1, events.size()));
    merge2.add(merge_seconds(store2, events.size()));
  }
  const auto fill = [&events](const vt::TraceStore& store, const BestOf& merge,
                              FormatNumbers& out) {
    out.volume = store.volume_stats();
    out.bytes_per_event = out.volume.bytes_per_event();
    out.digest = store.digest();
    out.merge_events_per_s = static_cast<double>(events.size()) / merge.best_s;
    out.merge_mb_per_s =
        static_cast<double>(out.volume.spilled_bytes) / merge.best_s / (1024.0 * 1024.0);
  };
  fill(store1, merge1, v1);
  fill(store2, merge2, v2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dyntrace;
  using namespace dyntrace::bench;

  double scale = 0.15;
  std::int64_t nprocs = 32;
  std::int64_t reps = 5;
  std::string json_path = "BENCH_trace.json";
  CliParser parser("micro_trace_v2",
                   "Trace format v2 vs v1 on the smg98 Full cell (BENCH_trace.json)");
  parser.option_double("scale", "problem scale factor (default 0.15)", &scale);
  parser.option_int("nprocs", "smg98 rank count (default 32)", &nprocs);
  parser.option_int("reps", "reps per measurement, best-of (default 5)", &reps);
  parser.option_string("json", "output artifact (default BENCH_trace.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // --- the event stream: one smg98 Full cell, kept in memory ---------------
  std::fprintf(stderr, "simulating smg98 Full/%d at scale %.2f...\n",
               static_cast<int>(nprocs), scale);
  dynprof::Launch::Options lopt;
  lopt.app = &asci::smg98();
  lopt.params.nprocs = static_cast<int>(nprocs);
  lopt.params.problem_scale = scale;
  lopt.policy = dynprof::Policy::kFull;
  dynprof::Launch launch(std::move(lopt));
  launch.run_to_completion();
  const std::vector<vt::Event> events = launch.trace()->merged();
  const std::uint64_t memory_digest = launch.trace()->digest();
  std::fprintf(stderr, "%zu events\n", events.size());

  FormatNumbers v1 = measure_encode(events, vt::TraceFormat::kV1, static_cast<int>(reps));
  FormatNumbers v2 = measure_encode(events, vt::TraceFormat::kV2, static_cast<int>(reps));
  measure_merges(events, static_cast<int>(reps), v1, v2);
  std::fprintf(stderr, "\n");

  const double byte_ratio = v2.bytes_per_event > 0 ? v1.bytes_per_event / v2.bytes_per_event : 0;
  const double merge_ratio =
      v1.merge_events_per_s > 0 ? v2.merge_events_per_s / v1.merge_events_per_s : 0;
  const double encode_ratio =
      v1.encode_ns_per_event > 0 ? v2.encode_ns_per_event / v1.encode_ns_per_event : 0;

  TextTable table({"Format", "Bytes/event", "Encode ns/event", "Merge Mevents/s",
                   "Merge MB/s"});
  table.add_row({"v1 (CRC frames)", TextTable::num(v1.bytes_per_event, 2),
                 TextTable::num(v1.encode_ns_per_event, 1),
                 TextTable::num(v1.merge_events_per_s / 1e6, 2),
                 TextTable::num(v1.merge_mb_per_s, 1)});
  table.add_row({"v2 (delta blocks)", TextTable::num(v2.bytes_per_event, 2),
                 TextTable::num(v2.encode_ns_per_event, 1),
                 TextTable::num(v2.merge_events_per_s / 1e6, 2),
                 TextTable::num(v2.merge_mb_per_s, 1)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("v2 vs v1: %.2fx fewer bytes/event, %.2fx merge throughput, "
              "%.2fx encode ns/event\n",
              byte_ratio, merge_ratio, encode_ratio);
  std::printf("suppression: %llu of %llu spilled record(s) folded into %llu super-record(s), "
              "%llu table eviction(s)\n",
              static_cast<unsigned long long>(v2.volume.suppressed_records),
              static_cast<unsigned long long>(v2.volume.spilled_records),
              static_cast<unsigned long long>(v2.volume.super_records),
              static_cast<unsigned long long>(v2.volume.table_evictions));

  // --- fig7a statistics bit-identity across formats ------------------------
  std::fprintf(stderr, "policy runs for the statistics digest gate...\n");
  const auto policy_cell = [&](vt::TraceFormat format) {
    dynprof::RunConfig config;
    config.app = &asci::smg98();
    config.policy = dynprof::Policy::kFull;
    config.nprocs = static_cast<int>(nprocs);
    config.problem_scale = scale;
    config.trace_spill_bytes = std::size_t{1} << 14;
    config.trace_format = format;
    return dynprof::run_policy(config);
  };
  const dynprof::PolicyResult policy_v1 = policy_cell(vt::TraceFormat::kV1);
  const dynprof::PolicyResult policy_v2 = policy_cell(vt::TraceFormat::kV2);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"cell\": {\"app\": \"smg98\", \"policy\": \"Full\", \"nprocs\": %d, "
      "\"scale\": %.3f, \"events\": %zu},\n"
      "  \"v1\": {\"bytes_per_event\": %.3f, \"encode_ns_per_event\": %.2f, "
      "\"merge_events_per_s\": %.0f, \"merge_mb_per_s\": %.2f},\n"
      "  \"v2\": {\"bytes_per_event\": %.3f, \"encode_ns_per_event\": %.2f, "
      "\"merge_events_per_s\": %.0f, \"merge_mb_per_s\": %.2f,\n"
      "          \"suppressed_records\": %llu, \"super_records\": %llu, "
      "\"table_evictions\": %llu},\n"
      "  \"ratios\": {\"bytes_per_event\": %.3f, \"merge_throughput\": %.3f, "
      "\"encode_ns_v2_over_v1\": %.3f},\n"
      "  \"digests_identical\": %s\n"
      "}\n",
      static_cast<int>(nprocs), scale, events.size(), v1.bytes_per_event,
      v1.encode_ns_per_event, v1.merge_events_per_s, v1.merge_mb_per_s, v2.bytes_per_event,
      v2.encode_ns_per_event, v2.merge_events_per_s, v2.merge_mb_per_s,
      static_cast<unsigned long long>(v2.volume.suppressed_records),
      static_cast<unsigned long long>(v2.volume.super_records),
      static_cast<unsigned long long>(v2.volume.table_evictions), byte_ratio, merge_ratio,
      encode_ratio,
      (v1.digest == memory_digest && v2.digest == memory_digest) ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"v2 spends >= 4x fewer bytes/event than v1 (smg98 Full)",
                    byte_ratio >= 4.0});
  checks.push_back({"v2 k-way merge throughput >= 2x v1", merge_ratio >= 2.0});
  checks.push_back({"v1 and v2 spilled stores merge to the in-memory digest",
                    v1.digest == memory_digest && v2.digest == memory_digest});
  checks.push_back({"fig7a trace and statistics digests bit-identical across formats",
                    policy_v1.trace_digest == policy_v2.trace_digest &&
                        policy_v1.stats_digest == policy_v2.stats_digest &&
                        policy_v1.app_seconds == policy_v2.app_seconds});
  return report_checks(checks);
}
