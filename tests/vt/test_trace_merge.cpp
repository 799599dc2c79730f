// Sharded store, spill-to-disk, binary format, and k-way merge: round-trip
// and adversarial-input coverage for the trace subsystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_format.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, EventKind kind = EventKind::kEnter,
                 std::int32_t code = 0, std::int64_t aux = 0) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.tid = 0;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.pid == b.pid && a.tid == b.tid && a.kind == b.kind &&
         a.code == b.code && a.aux == b.aux;
}

TraceStore::Options spill_options(std::size_t budget_bytes) {
  TraceStore::Options options;
  options.spill_budget_bytes = budget_bytes;
  options.spill_dir = ::testing::TempDir();
  return options;
}

TEST(TraceShard, SpillsSortedRunsPastBudget) {
  // Budget of 4 events: 10 appends -> at least two disk runs.
  TraceStore store(spill_options(4 * sizeof(Event)));
  for (int i = 0; i < 10; ++i) {
    store.append(make_event(100 - i, 0, EventKind::kEnter, i));
  }
  TraceShard& shard = store.shard(0);
  EXPECT_GE(shard.spill_runs(), 2u);
  EXPECT_GT(shard.spilled_bytes(), 0u);
  EXPECT_EQ(shard.size(), 10u);

  // The merged view is globally sorted even though appends were reversed.
  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].time, merged[i].time);
  }
}

TEST(TraceMerge, InterleavesOutOfOrderPerRankTimestamps) {
  // Three ranks whose local streams are *not* time-sorted (clock
  // adjustment mid-run), small budget so every rank spans several runs.
  TraceStore store(spill_options(3 * sizeof(Event)));
  std::vector<Event> reference;
  const sim::TimeNs times[] = {50, 10, 40, 20, 60, 30, 25, 55, 15, 45};
  for (std::int32_t pid = 0; pid < 3; ++pid) {
    for (int i = 0; i < 10; ++i) {
      const Event e = make_event(times[i] + pid, pid, EventKind::kEnter, pid * 100 + i);
      store.append(e);
      reference.push_back(e);
    }
  }
  std::stable_sort(reference.begin(), reference.end(), EventOrder{});

  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // Unique (time, pid) keys in this input, so the merged sequence must
    // match the reference sort exactly, payloads included.
    EXPECT_TRUE(same_event(merged[i], reference[i])) << "at " << i;
  }

  // Per-process cursors see only their rank, in time order.
  const auto p1 = store.for_process(1);
  ASSERT_EQ(p1.size(), 10u);
  for (const auto& e : p1) EXPECT_EQ(e.pid, 1);
  for (std::size_t i = 1; i < p1.size(); ++i) EXPECT_LE(p1[i - 1].time, p1[i].time);
}

TEST(TraceMerge, EqualKeysResolveToAppendOrder) {
  // Events with identical (time, pid, tid) must come out in append order
  // even when a spill splits them across runs (determinism contract).
  TraceStore store(spill_options(2 * sizeof(Event)));
  for (int i = 0; i < 6; ++i) store.append(make_event(7, 0, EventKind::kMarker, i));
  const auto merged = store.merged();
  ASSERT_EQ(merged.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(merged[static_cast<std::size_t>(i)].code, i);
}

TEST(TraceMerge, MergeCursorStreamsWithoutMaterializing) {
  TraceStore store(spill_options(8 * sizeof(Event)));
  for (int i = 0; i < 1000; ++i) {
    store.append(make_event(i, i % 4, EventKind::kEnter, i));
  }
  auto cursor = store.merge_cursor();
  Event e;
  std::size_t count = 0;
  sim::TimeNs last = -1;
  while (cursor->next(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++count;
  }
  EXPECT_EQ(count, 1000u);
}

TEST(TraceMerge, TimeBoundsTrackShardExtremes) {
  TraceStore store;
  sim::TimeNs lo = 0, hi = 0;
  EXPECT_FALSE(store.time_bounds(&lo, &hi));
  store.append(make_event(500, 0));
  store.append(make_event(100, 1));
  store.append(make_event(900, 1));
  ASSERT_TRUE(store.time_bounds(&lo, &hi));
  EXPECT_EQ(lo, 100);
  EXPECT_EQ(hi, 900);
}

TEST(TraceBinary, WriteReadRoundTrip) {
  TraceStore store(spill_options(2 * sizeof(Event)));
  store.append(make_event(123456789, 3, EventKind::kMsgSend, 7, 65536));
  store.append(make_event(5, 0, EventKind::kEnter, 42));
  store.append(make_event(999, 1, EventKind::kParallelBegin, 2, 4));
  store.append(make_event(-17, 2, EventKind::kMarker, -9, -1));  // negative fields survive

  const std::string path = ::testing::TempDir() + "/trace_roundtrip.bin";
  store.write_binary(path);
  const TraceStore loaded = TraceStore::read(path);  // auto-detects binary
  ASSERT_EQ(loaded.size(), 4u);
  const auto original = store.merged();
  const auto merged = loaded.merged();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(same_event(merged[i], original[i])) << "at " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceBinary, TextAndBinaryFormatsAreEquivalent) {
  TraceStore store;
  for (int i = 0; i < 32; ++i) {
    store.append(make_event(1000 - 7 * i, i % 3,
                            static_cast<EventKind>(i % (static_cast<int>(EventKind::kMarker) + 1)),
                            i, i * 11));
  }
  const std::string text_path = ::testing::TempDir() + "/trace_eq.txt";
  const std::string bin_path = ::testing::TempDir() + "/trace_eq.bin";
  store.write(text_path);
  store.write_binary(bin_path);
  const auto from_text = TraceStore::read(text_path).merged();
  const auto from_bin = TraceStore::read(bin_path).merged();
  ASSERT_EQ(from_text.size(), from_bin.size());
  for (std::size_t i = 0; i < from_text.size(); ++i) {
    EXPECT_TRUE(same_event(from_text[i], from_bin[i])) << "at " << i;
  }
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceBinary, OpenBinaryStreamsInMergedOrder) {
  TraceStore store;
  for (int i = 0; i < 10; ++i) store.append(make_event(100 - i, 0, EventKind::kEnter, i));
  const std::string path = ::testing::TempDir() + "/trace_stream.bin";
  store.write_binary(path);
  auto cursor = TraceStore::open_binary(path);
  Event e;
  sim::TimeNs last = -1;
  std::size_t count = 0;
  while (cursor->next(e)) {
    EXPECT_GT(e.time, last);
    last = e.time;
    ++count;
  }
  EXPECT_EQ(count, 10u);
  std::remove(path.c_str());
}

TEST(TraceBinary, TruncatedHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/trace_short_header.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("DTRC\x01", 5);  // magic + half a version field
  }
  EXPECT_THROW(TraceStore::read(path), Error);
  EXPECT_THROW(TraceStore::open_binary(path), Error);
  std::remove(path.c_str());
}

TEST(TraceBinary, TruncatedPayloadThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  store.append(make_event(2, 0));
  const std::string path = ::testing::TempDir() + "/trace_truncated.bin";
  store.write_binary(path);
  // Chop the block's last payload byte: the header still promises two
  // records, but the block is torn.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, size - 1, ec);
  ASSERT_FALSE(ec);
  EXPECT_THROW(TraceStore::read(path), Error);
  std::remove(path.c_str());
}

/// Recompute the CRC of the block that starts at `block` in `bytes`, so a
/// deliberately edited payload reaches the decoder instead of failing the
/// checksum first.
void reseal_block(std::vector<std::uint8_t>& bytes, std::size_t block) {
  const std::uint32_t payload = get_u32_le(bytes.data() + block + 8);
  put_u32_le(bytes.data() + block + 4,
             crc32(bytes.data() + block + 8, kBlockHeaderBytes - 8 + payload));
}

TEST(TraceBinary, UnknownKindByteThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  const std::string path = ::testing::TempDir() + "/trace_badkind.bin";
  store.write_binary(path);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Walk past the three dictionaries (pid, tid, code: a count, then that
  // many varints each) to record 0's kind tag.
  const std::size_t block = kTraceHeaderBytes;
  const std::uint8_t* p = bytes.data() + block + kBlockHeaderBytes;
  const std::uint8_t* end = bytes.data() + bytes.size();
  for (int dict = 0; dict < 3; ++dict) {
    std::uint64_t n = 0, value = 0;
    ASSERT_TRUE(get_varint(&p, end, &n));
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_TRUE(get_varint(&p, end, &value));
  }
  ASSERT_LT(p, end);
  bytes[static_cast<std::size_t>(p - bytes.data())] = 0x7f;  // not a kind, not kSuperTag
  reseal_block(bytes, block);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(TraceStore::read(path), Error);
  std::remove(path.c_str());
}

TEST(TraceBinary, UnsupportedVersionThrows) {
  TraceStore store;
  store.append(make_event(1, 0));
  const std::string path = ::testing::TempDir() + "/trace_badversion.bin";
  // Version 1 is the retired fixed-record format; 3 is from the future.
  // Either way this reader must reject the file loudly, naming the path,
  // the file's version and its own.
  for (const char version : {1, 3}) {
    store.write_binary(path);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(4);  // version field
      const char field[2] = {version, 0};
      f.write(field, 2);
    }
    try {
      TraceStore::read(path);
      FAIL() << "version " << int{version} << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("version " + std::to_string(version)), std::string::npos) << what;
      EXPECT_NE(what.find("speaks v2 only"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceText, WrongFieldCountsThrow) {
  for (const char* line : {"1\t2\t3\n", "1\t2\t3\tenter\t4\t5\t6\n"}) {
    const std::string path = ::testing::TempDir() + "/trace_fields.txt";
    {
      std::ofstream out(path);
      out << "# dyntrace trace v1\n" << line;
    }
    EXPECT_THROW(TraceStore::read(path), Error) << line;
    std::remove(path.c_str());
  }
}

TEST(TraceText, UnknownEventKindThrows) {
  const std::string path = ::testing::TempDir() + "/trace_badkind.txt";
  {
    std::ofstream out(path);
    out << "10\t0\t0\tteleport\t1\t2\n";
  }
  EXPECT_THROW(TraceStore::read(path), Error);
  std::remove(path.c_str());
}

TEST(TraceFormat, HeaderRejectsBadMagicAndRecordSize) {
  std::uint8_t header[kTraceHeaderBytes];
  encode_trace_header(9, header);
  EXPECT_EQ(decode_trace_header(header, sizeof(header), "t"), 9u);
  EXPECT_EQ(header[4] | (header[5] << 8), kTraceFormatVersion);

  std::uint8_t bad_magic[kTraceHeaderBytes];
  encode_trace_header(3, bad_magic);
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_trace_header(bad_magic, sizeof(bad_magic), "t"), Error);

  std::uint8_t bad_size[kTraceHeaderBytes];
  encode_trace_header(3, bad_size);
  bad_size[6] = 32;  // records must be advertised variable-length (0)
  EXPECT_THROW(decode_trace_header(bad_size, sizeof(bad_size), "t"), Error);

  // A well-formed header of the retired fixed-record format: version 1,
  // 32-byte records.
  std::uint8_t v1_header[kTraceHeaderBytes];
  encode_trace_header(3, v1_header);
  v1_header[4] = 1;
  v1_header[6] = 32;
  EXPECT_THROW(decode_trace_header(v1_header, sizeof(v1_header), "t"), Error);
}

TEST(TraceStoreSharded, EventsGroupsByProcess) {
  TraceStore store;
  store.append(make_event(3, 1, EventKind::kEnter, 30));
  store.append(make_event(1, 0, EventKind::kEnter, 10));
  store.append(make_event(2, 1, EventKind::kEnter, 20));
  const auto all = store.events();
  ASSERT_EQ(all.size(), 3u);
  // Shard by shard in pid order, time-ordered within the shard.
  EXPECT_EQ(all[0].code, 10);
  EXPECT_EQ(all[1].code, 20);
  EXPECT_EQ(all[2].code, 30);
  EXPECT_EQ(store.pids(), (std::vector<std::int32_t>{0, 1}));
}

}  // namespace
}  // namespace dyntrace::vt
