// Trace format v2 payoff on the smg98 Full cell.
//
// One simulated smg98 Full run supplies the event stream; the bench then
// replays it through the spill path and measures what the v2 format
// claims: bytes/event (varint deltas + dictionaries + redundancy
// suppression), encode ns/event, and k-way merge throughput reading the
// spilled runs back.  The yardstick is a bench-local fixed-record
// reference: the retired format's 36-byte CRC frames (a 32-byte record plus
// its CRC32), written to the same 128-event runs and read back by a cursor
// that decodes one record per refill.  Emits BENCH_trace.json.  Shape
// checks: v2 spends <= 9.0 bytes/event (4x fewer than a 36-byte frame),
// merges >= 2x faster than the reference, and the spilled store merges to
// the in-memory digest -- as do the fig7a trace and statistics digests of a
// spilled policy run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynprof/run.hpp"
#include "support/common.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_format.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_store.hpp"

namespace {

using namespace dyntrace;

/// Spill budget of the replayed store: 128-event runs.
constexpr std::size_t kSpillBudgetBytes = std::size_t{1} << 12;

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
};

// --- the fixed-record reference ---------------------------------------------

/// Record and frame sizes of the reference layout: time, aux (i64), pid,
/// tid, code (i32), kind (u8), three zero bytes -- all little-endian --
/// then the CRC32 of those 32 bytes.
constexpr std::size_t kRecordBytes = 32;
constexpr std::size_t kFrameBytes = kRecordBytes + 4;

template <int Bytes>
void put_le(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < Bytes; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <int Bytes>
std::uint64_t get_le(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < Bytes; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void encode_frame(const vt::Event& e, std::uint8_t* out) {
  put_le<8>(out, static_cast<std::uint64_t>(e.time));
  put_le<8>(out + 8, static_cast<std::uint64_t>(e.aux));
  put_le<4>(out + 16, static_cast<std::uint32_t>(e.pid));
  put_le<4>(out + 20, static_cast<std::uint32_t>(e.tid));
  put_le<4>(out + 24, static_cast<std::uint32_t>(e.code));
  out[28] = static_cast<std::uint8_t>(e.kind);
  out[29] = out[30] = out[31] = 0;
  vt::put_u32_le(out + kRecordBytes, vt::crc32(out, kRecordBytes));
}

/// One run of frames, read through a chunk buffer of up to 4096 frames and
/// decoded one record per refill, each frame's CRC checked as it is reached.
class FrameRunCursor final : public vt::EventCursor {
 public:
  FrameRunCursor(const std::string& path, std::uint64_t count)
      : path_(path), in_(path, std::ios::binary), remaining_(count) {
    DT_EXPECT(in_.good(), "cannot open reference run '", path_, "'");
  }

 private:
  bool refill() override {
    if (remaining_ == 0) return false;
    if (pos_ == chunk_.size()) {
      chunk_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, 4096)) *
                    kFrameBytes);
      in_.read(reinterpret_cast<char*>(chunk_.data()),
               static_cast<std::streamsize>(chunk_.size()));
      DT_EXPECT(static_cast<std::size_t>(in_.gcount()) == chunk_.size(), path_,
                ": truncated reference run");
      pos_ = 0;
    }
    const std::uint8_t* f = chunk_.data() + pos_;
    DT_EXPECT(vt::get_u32_le(f + kRecordBytes) == vt::crc32(f, kRecordBytes) &&
                  vt::valid_event_kind(f[28]),
              path_, ": corrupt reference frame");
    record_.time = static_cast<sim::TimeNs>(get_le<8>(f));
    record_.aux = static_cast<std::int64_t>(get_le<8>(f + 8));
    record_.pid = static_cast<std::int32_t>(get_le<4>(f + 16));
    record_.tid = static_cast<std::int32_t>(get_le<4>(f + 20));
    record_.code = static_cast<std::int32_t>(get_le<4>(f + 24));
    record_.kind = static_cast<vt::EventKind>(f[28]);
    pos_ += kFrameBytes;
    --remaining_;
    cur_ = &record_;
    end_ = cur_ + 1;
    return true;
  }

  std::string path_;
  std::ifstream in_;
  std::uint64_t remaining_;
  std::vector<std::uint8_t> chunk_;
  std::size_t pos_ = 0;
  vt::Event record_;
};

/// The reference's copy of the spilled store: the same runs -- each pid's
/// events in append order, cut every `run_records` and sorted the way a
/// shard sorts its tail before spilling -- written as frame files, with
/// each pid's remainder kept in memory.
class FixedRecordReference {
 public:
  FixedRecordReference(const std::vector<vt::Event>& events, std::size_t run_records)
      : run_records_(run_records) {
    std::map<std::int32_t, std::vector<vt::Event>> by_pid;
    for (const vt::Event& e : events) by_pid[e.pid].push_back(e);
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    std::vector<std::uint8_t> frames;
    for (auto& [pid, stream] : by_pid) {
      Shard shard;
      std::size_t begin = 0;
      for (; stream.size() - begin >= run_records; begin += run_records) {
        std::stable_sort(stream.begin() + static_cast<std::ptrdiff_t>(begin),
                         stream.begin() + static_cast<std::ptrdiff_t>(begin + run_records),
                         vt::EventOrder{});
        frames.resize(run_records * kFrameBytes);
        for (std::size_t i = 0; i < run_records; ++i) {
          encode_frame(stream[begin + i], frames.data() + i * kFrameBytes);
        }
        const std::string path =
            (dir / ("dyntrace-ref-" + std::to_string(::getpid()) + "-" + std::to_string(pid) +
                    "-" + std::to_string(shard.runs.size())))
                .string();
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(frames.data()),
                  static_cast<std::streamsize>(frames.size()));
        DT_EXPECT(out.good(), "cannot write reference run '", path, "'");
        shard.runs.push_back(path);
        bytes_ += frames.size();
      }
      shard.tail.assign(stream.begin() + static_cast<std::ptrdiff_t>(begin), stream.end());
      std::stable_sort(shard.tail.begin(), shard.tail.end(), vt::EventOrder{});
      shards_.push_back(std::move(shard));
    }
  }

  ~FixedRecordReference() {
    for (const Shard& shard : shards_) {
      for (const std::string& path : shard.runs) std::remove(path.c_str());
    }
  }

  /// Inputs in the store's order (pid, then run, then tail), so equal keys
  /// merge in the same order as TraceStore::merge_cursor().
  std::unique_ptr<vt::EventCursor> merge_cursor() const {
    std::vector<std::unique_ptr<vt::EventCursor>> inputs;
    for (const Shard& shard : shards_) {
      for (const std::string& path : shard.runs) {
        inputs.push_back(std::make_unique<FrameRunCursor>(path, run_records_));
      }
      if (!shard.tail.empty()) inputs.push_back(std::make_unique<vt::VectorCursor>(shard.tail));
    }
    return std::make_unique<vt::MergeCursor>(std::move(inputs));
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  struct Shard {
    std::vector<std::string> runs;
    std::vector<vt::Event> tail;
  };
  std::size_t run_records_;
  std::vector<Shard> shards_;
  std::uint64_t bytes_ = 0;
};

// --- measurements -------------------------------------------------------------

/// Best-of encode ns/event (the spill-time cost): v2 one block per call into
/// a buffer cleared each time, as the spill path does; the reference one
/// frame at a time.
void measure_encode(const std::vector<vt::Event>& events, int reps, FormatNumbers& v2,
                    FormatNumbers& reference) {
  BestOf encode_v2, encode_ref;
  for (int rep = 0; rep < reps; ++rep) {
    auto begin = std::chrono::steady_clock::now();
    vt::SuppressionTable table(1024);
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < events.size(); i += vt::kBlockRecords) {
      const std::size_t n = std::min(vt::kBlockRecords, events.size() - i);
      bytes.clear();
      vt::encode_v2_blocks(events.data() + i, n, &table, bytes);
    }
    encode_v2.add(seconds_since(begin));

    begin = std::chrono::steady_clock::now();
    std::uint8_t frame[kFrameBytes];
    std::uint64_t checksum = 0;
    for (const auto& e : events) {
      encode_frame(e, frame);
      checksum += frame[kRecordBytes];
    }
    if (checksum == 0) std::fputc(' ', stderr);  // keep the loop live
    encode_ref.add(seconds_since(begin));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  const auto n = static_cast<double>(events.size());
  v2.encode_ns_per_event = encode_v2.best_s * 1e9 / n;
  reference.encode_ns_per_event = encode_ref.best_s * 1e9 / n;
}

/// One timed k-way merge.  Cursor construction (one open(2) per run, slow
/// and noisy on overlay filesystems, and each input's first batch) stays
/// outside the timed window; the window times the drain.
double merge_seconds(std::unique_ptr<vt::EventCursor> cursor, std::size_t expected) {
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

bool same_stream(vt::EventCursor& cursor, const std::vector<vt::Event>& expected) {
  vt::Event e;
  for (const vt::Event& want : expected) {
    if (!cursor.next(e) || e.time != want.time || e.pid != want.pid || e.tid != want.tid ||
        e.kind != want.kind || e.code != want.code || e.aux != want.aux) {
      return false;
    }
  }
  return !cursor.next(e);
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
                   "Trace format v2 vs a fixed-record reference on the smg98 Full cell "
                   "(BENCH_trace.json)");
  parser.option_double("scale", "problem scale factor (default 0.15)", &scale);
  parser.option_int("nprocs", "smg98 rank count (default 32)", &nprocs);
  parser.option_int("reps", "reps per measurement, best-of (default 5)", &reps);
  parser.option_string("json", "output artifact (default BENCH_trace.json)", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  // --- the event stream: one smg98 Full cell, kept in memory ---------------
  std::fprintf(stderr, "simulating smg98 Full/%d at scale %.2f...\n",
               static_cast<int>(nprocs), scale);
  const auto full_cell = [&](std::size_t spill_bytes) {
    dynprof::RunSpec spec;
    spec.jobs = {{.app = &asci::smg98(),
                  .policy = dynprof::Policy::kFull,
                  .nprocs = static_cast<int>(nprocs),
                  .problem_scale = scale,
                  .seed = spec.seed}};
    spec.trace_spill_bytes = spill_bytes;
    return spec;
  };
  std::vector<vt::Event> events;
  dynprof::RunSpec memory_spec = full_cell(0);
  memory_spec.on_complete = [&](dynprof::Launch& launch) {
    events = launch.trace()->merged();
  };
  const dynprof::JobResult policy_memory = dynprof::run(memory_spec).jobs.front();
  const std::uint64_t memory_digest = policy_memory.trace_digest;
  std::fprintf(stderr, "%zu events\n", events.size());

  // --- the same stream spilled: v2 shards and the fixed-record reference ----
  vt::TraceStore::Options options;
  options.spill_budget_bytes = kSpillBudgetBytes;
  options.spill_dir = "";  // system temp
  vt::TraceStore store(options);
  for (const auto& e : events) store.append(e);
  const FixedRecordReference reference(events, kSpillBudgetBytes / sizeof(vt::Event));
  const vt::TraceStore::VolumeStats volume = store.volume_stats();
  const std::uint64_t spilled_digest = store.digest();
  const bool reference_faithful = [&] {
    auto cursor = reference.merge_cursor();
    return same_stream(*cursor, events);
  }();

  FormatNumbers v2, ref;
  measure_encode(events, static_cast<int>(reps), v2, ref);
  // The two merges alternate rep by rep, so a change in host speed during
  // the run (other tenants, frequency) hits both sides of the ratio the
  // gate checks, not just one.
  BestOf merge_v2, merge_ref;
  for (int rep = 0; rep < static_cast<int>(reps); ++rep) {
    merge_ref.add(merge_seconds(reference.merge_cursor(), events.size()));
    merge_v2.add(merge_seconds(store.merge_cursor(), events.size()));
  }
  std::fprintf(stderr, "\n");
  const auto n = static_cast<double>(events.size());
  v2.bytes_per_event = volume.bytes_per_event();
  v2.merge_events_per_s = n / merge_v2.best_s;
  v2.merge_mb_per_s = static_cast<double>(volume.spilled_bytes) / merge_v2.best_s / 1048576.0;
  ref.bytes_per_event = static_cast<double>(kFrameBytes);
  ref.merge_events_per_s = n / merge_ref.best_s;
  ref.merge_mb_per_s = static_cast<double>(reference.bytes()) / merge_ref.best_s / 1048576.0;

  const double merge_ratio =
      ref.merge_events_per_s > 0 ? v2.merge_events_per_s / ref.merge_events_per_s : 0;
  const double encode_ratio =
      ref.encode_ns_per_event > 0 ? v2.encode_ns_per_event / ref.encode_ns_per_event : 0;

  TextTable table({"Format", "Bytes/event", "Encode ns/event", "Merge Mevents/s",
                   "Merge MB/s"});
  table.add_row({"fixed-record reference (CRC frames)", TextTable::num(ref.bytes_per_event, 2),
                 TextTable::num(ref.encode_ns_per_event, 1),
                 TextTable::num(ref.merge_events_per_s / 1e6, 2),
                 TextTable::num(ref.merge_mb_per_s, 1)});
  table.add_row({"v2 (delta blocks)", TextTable::num(v2.bytes_per_event, 2),
                 TextTable::num(v2.encode_ns_per_event, 1),
                 TextTable::num(v2.merge_events_per_s / 1e6, 2),
                 TextTable::num(v2.merge_mb_per_s, 1)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("v2: %.2f bytes/event; vs the reference %.2fx merge throughput, "
              "%.2fx encode ns/event\n",
              v2.bytes_per_event, merge_ratio, encode_ratio);
  std::printf("suppression: %llu of %llu spilled record(s) folded into %llu super-record(s), "
              "%llu table eviction(s)\n",
              static_cast<unsigned long long>(volume.suppressed_records),
              static_cast<unsigned long long>(volume.spilled_records),
              static_cast<unsigned long long>(volume.super_records),
              static_cast<unsigned long long>(volume.table_evictions));

  // --- fig7a digests: a spilled policy run vs the same run in memory --------
  std::fprintf(stderr, "policy runs for the statistics digest gate...\n");
  const dynprof::JobResult policy_spilled =
      dynprof::run(full_cell(std::size_t{1} << 14)).jobs.front();
  const bool policy_identical = policy_spilled.trace_digest == policy_memory.trace_digest &&
                                policy_spilled.stats_digest == policy_memory.stats_digest &&
                                policy_spilled.app_seconds == policy_memory.app_seconds;

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
      "  \"fixed_record_reference\": {\"bytes_per_event\": %.3f, "
      "\"encode_ns_per_event\": %.2f, \"merge_events_per_s\": %.0f, "
      "\"merge_mb_per_s\": %.2f},\n"
      "  \"v2\": {\"bytes_per_event\": %.3f, \"encode_ns_per_event\": %.2f, "
      "\"merge_events_per_s\": %.0f, \"merge_mb_per_s\": %.2f,\n"
      "          \"suppressed_records\": %llu, \"super_records\": %llu, "
      "\"table_evictions\": %llu},\n"
      "  \"ratios\": {\"merge_throughput\": %.3f, \"encode_ns_v2_over_reference\": %.3f},\n"
      "  \"digests_identical\": %s\n"
      "}\n",
      static_cast<int>(nprocs), scale, events.size(), ref.bytes_per_event,
      ref.encode_ns_per_event, ref.merge_events_per_s, ref.merge_mb_per_s, v2.bytes_per_event,
      v2.encode_ns_per_event, v2.merge_events_per_s, v2.merge_mb_per_s,
      static_cast<unsigned long long>(volume.suppressed_records),
      static_cast<unsigned long long>(volume.super_records),
      static_cast<unsigned long long>(volume.table_evictions), merge_ratio, encode_ratio,
      (spilled_digest == memory_digest && policy_identical) ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"v2 spends <= 9.0 bytes/event (4x fewer than 36-byte frames; smg98 Full)",
                    v2.bytes_per_event <= 9.0});
  checks.push_back({"v2 k-way merge throughput >= 2x the fixed-record reference",
                    merge_ratio >= 2.0});
  checks.push_back({"fixed-record reference reads back the in-memory merged stream",
                    reference_faithful});
  checks.push_back({"spilled v2 store merges to the in-memory digest",
                    spilled_digest == memory_digest});
  checks.push_back({"fig7a trace and statistics digests bit-identical spilled vs in memory",
                    policy_identical});
  return report_checks(checks);
}
