// Trace format v2: varint/zig-zag property tests, block round-trips,
// redundancy suppression (counted super-records, bounded pattern table),
// block-granular torn-tail salvage, CRC32 known answers, and golden
// encoder bytes pinned across encoder rewrites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "asci/app.hpp"
#include "dynprof/launch.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/trace_format.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_shard.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, std::int32_t tid, EventKind kind,
                 std::int32_t code, std::int64_t aux = 0) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.tid = tid;
  e.kind = kind;
  e.code = code;
  e.aux = aux;
  return e;
}

/// Deterministic xorshift so "random" inputs replay bit-identically.
struct Rng {
  std::uint64_t state = 0x243f6a8885a308d3ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

std::vector<Event> decode_all(const std::vector<std::uint8_t>& bytes) {
  std::vector<Event> out;
  BlockDecoder decoder;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t block_bytes = 0;
    std::uint32_t count = 0;
    EXPECT_TRUE(decoder.reset(bytes.data() + offset, bytes.size() - offset, &block_bytes,
                              &count))
        << "at offset " << offset;
    Event e;
    while (decoder.next(e)) out.push_back(e);
    EXPECT_FALSE(decoder.failed());
    offset += block_bytes;
  }
  return out;
}

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.pid == b.pid && a.tid == b.tid && a.kind == b.kind &&
         a.code == b.code && a.aux == b.aux;
}

void expect_roundtrip(const std::vector<Event>& events, bool suppress) {
  SuppressionTable table(256);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), suppress ? &table : nullptr, bytes);
  EXPECT_EQ(stats.records, events.size());
  EXPECT_EQ(stats.bytes, bytes.size());
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

// --- varint / zig-zag properties -------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7f,
                                  0x80,
                                  0x3fff,
                                  0x4000,
                                  0x1fffff,
                                  0x200000,
                                  0xffffffffull,
                                  0x100000000ull,
                                  (std::uint64_t{1} << 63) - 1,
                                  std::uint64_t{1} << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::uint8_t buf[kMaxVarintBytes];
    const std::size_t n = put_varint(buf, v);
    ASSERT_LE(n, kMaxVarintBytes);
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_varint(&p, buf + n, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, buf + n) << v;  // consumed exactly what was written
  }
}

TEST(Varint, EncodedLengthGrowsBySevenBitGroups) {
  std::uint8_t buf[kMaxVarintBytes];
  EXPECT_EQ(put_varint(buf, 0), 1u);
  EXPECT_EQ(put_varint(buf, 0x7f), 1u);
  EXPECT_EQ(put_varint(buf, 0x80), 2u);
  EXPECT_EQ(put_varint(buf, 0x3fff), 2u);
  EXPECT_EQ(put_varint(buf, 0x4000), 3u);
  EXPECT_EQ(put_varint(buf, std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Varint, RejectsTruncatedInput) {
  std::uint8_t buf[kMaxVarintBytes];
  const std::size_t n = put_varint(buf, 0x123456789abcdef0ull);
  for (std::size_t cut = 0; cut < n; ++cut) {
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    EXPECT_FALSE(get_varint(&p, buf + cut, &out)) << "cut at " << cut;
  }
}

TEST(Varint, RejectsOverlongAndOversizeEncodings) {
  // 11 continuation bytes: longer than any u64 needs.
  std::uint8_t too_long[11];
  std::memset(too_long, 0x80, 10);
  too_long[10] = 0x01;
  const std::uint8_t* p = too_long;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_varint(&p, too_long + sizeof(too_long), &out));

  // 10 bytes whose last byte carries bits beyond the 64th: would alias.
  std::uint8_t overflow[10];
  std::memset(overflow, 0x80, 9);
  overflow[9] = 0x02;
  p = overflow;
  EXPECT_FALSE(get_varint(&p, overflow + sizeof(overflow), &out));

  // The canonical max encoding (last byte 0x01) is fine.
  std::uint8_t max_ok[10];
  std::memset(max_ok, 0xff, 9);
  max_ok[9] = 0x01;
  p = max_ok;
  ASSERT_TRUE(get_varint(&p, max_ok + sizeof(max_ok), &out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

TEST(Varint, ZigzagRoundTripsSignedBoundaries) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 63,
                                 -64,
                                 64,
                                 -65,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::min() + 1};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the whole point of the fold).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Varint, RandomizedRoundTripSweep) {
  Rng rng;
  for (int i = 0; i < 10000; ++i) {
    // Bias toward small values and all widths: mask by a random bit count.
    const std::uint64_t v = rng.next() >> (rng.next() % 64);
    std::uint8_t buf[kMaxVarintBytes];
    const std::size_t n = put_varint(buf, v);
    const std::uint8_t* p = buf;
    std::uint64_t out = 0;
    ASSERT_TRUE(get_varint(&p, buf + n, &out));
    ASSERT_EQ(out, v);
    const std::int64_t s = static_cast<std::int64_t>(v);
    ASSERT_EQ(zigzag_decode(zigzag_encode(s)), s);
  }
}

// --- block round-trips ------------------------------------------------------

TEST(TraceCodecV2, RoundTripsMixedEventsWithoutSuppression) {
  std::vector<Event> events;
  Rng rng;
  sim::TimeNs t = 1000;
  for (int i = 0; i < 3000; ++i) {
    t += static_cast<sim::TimeNs>(rng.next() % 5000);
    events.push_back(make_event(
        t, static_cast<std::int32_t>(rng.next() % 7),
        static_cast<std::int32_t>(rng.next() % 4),
        static_cast<EventKind>(rng.next() % (static_cast<int>(EventKind::kMarker) + 1)),
        static_cast<std::int32_t>(rng.next() % 100),
        static_cast<std::int64_t>(rng.next())));
  }
  expect_roundtrip(events, /*suppress=*/false);
  expect_roundtrip(events, /*suppress=*/true);
}

TEST(TraceCodecV2, RoundTripsNegativeAndExtremeFields) {
  std::vector<Event> events;
  events.push_back(make_event(-1000, -3, -7, EventKind::kMarker, -42, -1));
  events.push_back(make_event(0, 0, 0, EventKind::kEnter, 0, 0));
  events.push_back(make_event(std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::int32_t>::max(),
                              std::numeric_limits<std::int32_t>::min(), EventKind::kLeave,
                              std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int64_t>::min()));
  // The max->negative time step exercises a max-magnitude negative delta.
  events.push_back(make_event(std::numeric_limits<std::int64_t>::min() + 2, 1, 1,
                              EventKind::kMpiBegin, 5,
                              std::numeric_limits<std::int64_t>::max()));
  expect_roundtrip(events, /*suppress=*/false);
  expect_roundtrip(events, /*suppress=*/true);
}

TEST(TraceCodecV2, SpansMultipleBlocks) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < 2 * kBlockRecords + 17; ++i) {
    events.push_back(make_event(static_cast<sim::TimeNs>(i * 3), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 50)));
  }
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_EQ(stats.records, events.size());
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, DeltaEncodingBeatsV1ByFourTimes) {
  // A realistic near-sorted stream: one pid, few tids, clustered codes,
  // small aux -- smg98's shape.  No repetition, so suppression is off.
  std::vector<Event> events;
  Rng rng;
  sim::TimeNs t = 123456789;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<sim::TimeNs>(100 + rng.next() % 900);
    events.push_back(make_event(t, 3, static_cast<std::int32_t>(rng.next() % 4),
                                (i % 2) == 0 ? EventKind::kEnter : EventKind::kLeave,
                                static_cast<std::int32_t>(rng.next() % 64),
                                static_cast<std::int64_t>(rng.next() % 128)));
  }
  // The retired fixed-record format spent 36 bytes per spilled record
  // (32-byte record + CRC32); 4x fewer is 9.0 bytes/event.
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), nullptr, bytes);
  const double bytes_per_event = static_cast<double>(bytes.size()) / events.size();
  EXPECT_LE(bytes_per_event, 9.0);
}

// --- redundancy suppression -------------------------------------------------

/// N repetitions of an enter/leave burst with a fixed stride: the Arafa
/// pattern the suppressor is built for.
std::vector<Event> burst_pattern(std::size_t reps, sim::TimeNs stride, sim::TimeNs t0 = 0) {
  std::vector<Event> events;
  for (std::size_t r = 0; r < reps; ++r) {
    const sim::TimeNs base = t0 + static_cast<sim::TimeNs>(r) * stride;
    events.push_back(make_event(base, 2, 0, EventKind::kEnter, 17, 5));
    events.push_back(make_event(base + 40, 2, 0, EventKind::kLeave, 17, -5));
  }
  return events;
}

TEST(TraceCodecV2, SuppressesRepeatedBurstsExactly) {
  const std::vector<Event> events = burst_pattern(500, 1000);
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_EQ(stats.supers, 1u);
  EXPECT_EQ(stats.suppressed, events.size() - 2);  // all but the stored pattern
  // One super-record instead of a thousand plain ones.
  EXPECT_LT(bytes.size(), 200u);

  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;  // bit-exact times
  }
}

TEST(TraceCodecV2, SuppressionIsExactNotApproximate) {
  // Perturb one timestamp mid-repetition: the run must split around it and
  // still round-trip bit-exactly.
  std::vector<Event> events = burst_pattern(100, 1000);
  events[101].time += 1;
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), &table, bytes);
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, SuppressionHandlesLongerPeriods) {
  // Period-5 bursts (enter, 3 MPI ops, leave), repeated 200x.
  std::vector<Event> events;
  for (int r = 0; r < 200; ++r) {
    const sim::TimeNs base = r * 700;
    events.push_back(make_event(base, 1, 0, EventKind::kEnter, 9));
    events.push_back(make_event(base + 10, 1, 0, EventKind::kMpiBegin, 30));
    events.push_back(make_event(base + 20, 1, 0, EventKind::kMsgSend, 4, 4096));
    events.push_back(make_event(base + 30, 1, 0, EventKind::kMpiEnd, 30));
    events.push_back(make_event(base + 40, 1, 0, EventKind::kLeave, 9));
  }
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  const V2EncodeStats stats =
      encode_v2_blocks(events.data(), events.size(), &table, bytes);
  EXPECT_GE(stats.supers, 1u);
  EXPECT_EQ(stats.suppressed, events.size() - 5);
  const std::vector<Event> decoded = decode_all(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(same_event(decoded[i], events[i])) << "at " << i;
  }
}

TEST(TraceCodecV2, TableHintSpeedsRepeatDetection) {
  // Two spills of the same burst shape share one table: the second encode
  // should find its period via the memo.
  const std::vector<Event> a = burst_pattern(50, 1000, 0);
  const std::vector<Event> b = burst_pattern(50, 1000, 1000000);
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(a.data(), a.size(), &table, bytes);
  const V2EncodeStats second = encode_v2_blocks(b.data(), b.size(), &table, bytes);
  EXPECT_GE(second.table_hits, 1u);
  EXPECT_GE(table.hits(), 1u);
}

// --- suppression table bounding (satellite 2) -------------------------------

TEST(SuppressionTable, EvictsOldestInsertionFirst) {
  SuppressionTable table(2);
  table.note(100, 1);
  table.note(200, 2);
  table.note(100, 3);  // refresh: must NOT reorder (dpcl dedup semantics)
  table.note(300, 4);  // evicts 100 (oldest insertion), not 200
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.lookup(100), 0u);
  EXPECT_EQ(table.lookup(200), 2u);
  EXPECT_EQ(table.lookup(300), 4u);
  table.note(400, 5);  // now 200 is oldest
  EXPECT_EQ(table.lookup(200), 0u);
  EXPECT_EQ(table.lookup(300), 4u);
  EXPECT_EQ(table.lookup(400), 5u);
  EXPECT_EQ(table.evictions(), 2u);
}

TEST(SuppressionTable, ZeroCapacityNeverStores) {
  SuppressionTable table(0);
  table.note(1, 1);
  table.note(2, 2);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.lookup(1), 0u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(SuppressionTable, AdversarialNonRepeatingTraceStaysBounded) {
  // Thousands of distinct short-repeat patterns (each fires the suppressor
  // once and never recurs): every one lands in the memo, so a tiny capacity
  // must evict (deterministically) instead of growing without bound.
  constexpr std::size_t kCapacity = 16;
  const auto spill_events = [](int spill, std::vector<Event>& events) {
    events.clear();
    for (int p = 0; p < 500; ++p) {
      const std::int32_t code = spill * 1000 + p;  // new pattern every time
      const sim::TimeNs base = p * 200;
      events.push_back(make_event(base, 1, 0, EventKind::kEnter, code));
      events.push_back(make_event(base + 50, 1, 0, EventKind::kEnter, code));
      events.push_back(make_event(base + 100, 1, 0, EventKind::kEnter, code));
    }
  };
  SuppressionTable table(kCapacity);
  std::vector<Event> events;
  std::vector<std::uint8_t> bytes;
  std::uint64_t total_supers = 0;
  for (int spill = 0; spill < 8; ++spill) {
    spill_events(spill, events);
    bytes.clear();
    total_supers += encode_v2_blocks(events.data(), events.size(), &table, bytes).supers;
  }
  EXPECT_GT(total_supers, 0u);
  EXPECT_LE(table.size(), kCapacity);
  EXPECT_GT(table.evictions(), 0u);

  // Determinism: replaying the identical stream evicts identically.
  SuppressionTable replay(kCapacity);
  for (int spill = 0; spill < 8; ++spill) {
    spill_events(spill, events);
    bytes.clear();
    encode_v2_blocks(events.data(), events.size(), &replay, bytes);
  }
  EXPECT_EQ(replay.evictions(), table.evictions());
  EXPECT_EQ(replay.size(), table.size());
}

TEST(SuppressionTable, MatchesReferenceModelUnderChurn) {
  // Random notes over a key pool a few times the capacity drive refreshes,
  // FIFO evictions and deletions from the middle of probe runs; every
  // lookup must agree with a plain map + insertion-order model.
  for (const std::size_t capacity : {1u, 3u, 5u, 37u, 300u}) {
    Rng rng;
    std::vector<std::uint64_t> keys(3 * capacity + 2);
    for (auto& key : keys) key = rng.next();
    keys[0] = 0;
    SuppressionTable table(capacity);
    std::map<std::uint64_t, std::uint32_t> model;
    std::deque<std::uint64_t> order;
    std::uint64_t evictions = 0;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = keys[rng.next() % keys.size()];
      const auto period = static_cast<std::uint32_t>(1 + rng.next() % 16);
      if (!model.contains(key)) {
        if (model.size() >= capacity) {
          model.erase(order.front());
          order.pop_front();
          ++evictions;
        }
        order.push_back(key);
      }
      model[key] = period;
      table.note(key, period);
      ASSERT_EQ(table.size(), model.size()) << "capacity " << capacity << " step " << step;
      const std::uint64_t probe = keys[rng.next() % keys.size()];
      const auto it = model.find(probe);
      ASSERT_EQ(table.lookup(probe), it == model.end() ? 0u : it->second)
          << "capacity " << capacity << " step " << step;
    }
    EXPECT_EQ(table.evictions(), evictions);
    for (const std::uint64_t key : keys) {
      const auto it = model.find(key);
      EXPECT_EQ(table.lookup(key), it == model.end() ? 0u : it->second);
    }
  }
}

// --- torn-tail salvage on block frames (satellite 3) ------------------------

std::string write_temp(const std::vector<std::uint8_t>& bytes, std::size_t keep,
                       const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, std::min(keep, bytes.size()), f);
  std::fclose(f);
  return path;
}

/// Two blocks of plain records plus one whose tail is a super-record.
std::vector<std::uint8_t> three_block_run(std::size_t* per_block_records) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < 2 * kBlockRecords; ++i) {
    events.push_back(make_event(static_cast<sim::TimeNs>(i * 10), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 97)));
  }
  const std::vector<Event> burst =
      burst_pattern(64, 1000, static_cast<sim::TimeNs>(2 * kBlockRecords) * 10);
  events.insert(events.end(), burst.begin(), burst.end());
  SuppressionTable table(64);
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), &table, bytes);
  *per_block_records = kBlockRecords;
  return bytes;
}

std::size_t block_span(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  return kBlockHeaderBytes + get_u32_le(bytes.data() + offset + 8);
}

TEST(TraceCodecV2, SalvageRecoversIntactLeadingBlocks) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::string path = write_temp(bytes, bytes.size(), "v2_salvage_full.bin");
  const BlockSalvage all = salvage_v2_scan(path);
  EXPECT_EQ(all.blocks, 3u);
  EXPECT_EQ(all.records, 2 * per_block + 128);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidBlockHeaderKeepsEarlierBlocks) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  // Tear 7 bytes into block 1's header.
  const std::string path = write_temp(bytes, block0 + 7, "v2_tear_header.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidVarintInvalidatesOnlyTornBlock) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  const std::size_t block1 = block_span(bytes, block0);
  // Tear inside block 1's payload -- mid-item, almost surely mid-varint.
  const std::string path =
      write_temp(bytes, block0 + kBlockHeaderBytes + block1 / 2, "v2_tear_varint.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, TearMidSuperRecordDropsItsWholeBlock) {
  std::size_t per_block = 0;
  const std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  // Block 2 ends with a 128-record suppressed burst; cut its last 4 bytes
  // so the tear lands inside the super-record's encoded pattern.
  const std::string path = write_temp(bytes, bytes.size() - 4, "v2_tear_super.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 2u);
  EXPECT_EQ(salvage.records, 2 * per_block);
  std::remove(path.c_str());
}

TEST(TraceCodecV2, CorruptPayloadByteFailsCrc) {
  std::size_t per_block = 0;
  std::vector<std::uint8_t> bytes = three_block_run(&per_block);
  const std::size_t block0 = block_span(bytes, 0);
  bytes[block0 + kBlockHeaderBytes + 11] ^= 0x20;  // flip one payload bit of block 1
  const std::string path = write_temp(bytes, bytes.size(), "v2_corrupt.bin");
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 1u);
  EXPECT_EQ(salvage.records, per_block);
  std::remove(path.c_str());
}

TEST(TraceShardV2, TornSpillSalvagesWholeBlocksOnly) {
  // Budget of 2*kBlockRecords records per run makes every run exactly two
  // blocks; run 1's bytes are cut 5 bytes into its second block, so the
  // shard must keep run 0 in full plus run 1's first block -- and nothing
  // of the torn block.
  const std::size_t per_run = 2 * kBlockRecords;
  ShardOptions options;
  options.spill_budget_bytes = per_run * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  std::size_t cut_at = 0;
  options.spill_fault = [&cut_at](std::int32_t, std::uint64_t run, std::size_t bytes) {
    return run == 1 ? cut_at : bytes;
  };
  std::vector<std::uint8_t> sample;
  {
    // Sizing pass: encode both runs standalone (replaying run 0 first so
    // the suppression-table state matches the shard's) to find run 1's
    // first block boundary.
    std::vector<Event> run0, run1;
    for (std::size_t i = 0; i < per_run; ++i) {
      run0.push_back(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 31)));
    }
    for (std::size_t i = per_run; i < 2 * per_run; ++i) {
      run1.push_back(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                                static_cast<std::int32_t>(i % 31)));
    }
    SuppressionTable table(1024);
    std::vector<std::uint8_t> scratch;
    encode_v2_blocks(run0.data(), run0.size(), &table, scratch);
    encode_v2_blocks(run1.data(), run1.size(), &table, sample);
  }
  cut_at = block_span(sample, 0) + 5;  // run 1: block 0 intact, block 1 torn

  TraceShard shard(1, options);
  for (std::size_t i = 0; i < 2 * per_run; ++i) {
    shard.append(make_event(static_cast<sim::TimeNs>(i), 1, 0, EventKind::kEnter,
                            static_cast<std::int32_t>(i % 31)));
  }
  EXPECT_TRUE(shard.torn());
  EXPECT_EQ(shard.salvaged_records(), kBlockRecords);
  EXPECT_EQ(shard.lost_records(), per_run - kBlockRecords);

  // The merged view serves run 0 in full plus run 1's intact first block.
  auto cursor = shard.cursor();
  Event e;
  std::size_t read = 0;
  while (cursor->next(e)) {
    ASSERT_EQ(e.time, static_cast<sim::TimeNs>(read));
    ++read;
  }
  EXPECT_EQ(read, per_run + kBlockRecords);
}

// --- store-level equivalence ------------------------------------------------

TraceStore build_store(std::size_t budget_records) {
  TraceStore::Options options;
  options.spill_budget_bytes = budget_records * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  TraceStore store(options);
  Rng rng;
  for (int pid = 0; pid < 3; ++pid) {
    sim::TimeNs t = 5000 * pid;
    for (int i = 0; i < 1500; ++i) {
      t += static_cast<sim::TimeNs>(rng.next() % 300);
      store.append(make_event(t, pid, static_cast<std::int32_t>(rng.next() % 2),
                              (i % 2) == 0 ? EventKind::kEnter : EventKind::kLeave,
                              static_cast<std::int32_t>(rng.next() % 40),
                              static_cast<std::int64_t>(rng.next() % 1000)));
    }
  }
  return store;
}

/// Bytes per spilled record in the retired fixed-record format (a 32-byte
/// record plus its CRC32): the yardstick the size checks below keep.
constexpr double kFixedRecordFrameBytes = 36.0;

TEST(TraceStoreV2, DigestsMatchV1AcrossSpillFormats) {
  // Spilling changes where records live, never what the merge serves: the
  // same appends digest identically spilled to blocks or kept in memory.
  const TraceStore spilled = build_store(256);
  const TraceStore memory = build_store(0);
  EXPECT_EQ(spilled.salvage_stats().torn_shards, 0u);  // sanity: healthy runs
  EXPECT_EQ(spilled.digest(), memory.digest());

  const auto volume = spilled.volume_stats();
  EXPECT_GT(volume.spilled_records, 0u);
  EXPECT_EQ(memory.volume_stats().spilled_records, 0u);
  EXPECT_LT(volume.bytes_per_event() * 2, kFixedRecordFrameBytes);
}

TEST(TraceStoreV2, BinaryFileRoundTripsInBothFormats) {
  // Both file formats -- tab-separated text and binary blocks -- read back
  // to the store's digest.
  const TraceStore store = build_store(0);  // no spill
  const std::string text_path = ::testing::TempDir() + "/store_text.trace";
  const std::string bin_path = ::testing::TempDir() + "/store_v2.bin";
  store.write(text_path);
  store.write_binary(bin_path);

  const TraceStore from_text = TraceStore::read(text_path);
  const TraceStore from_bin = TraceStore::read(bin_path);
  EXPECT_EQ(from_text.size(), store.size());
  EXPECT_EQ(from_bin.size(), store.size());
  EXPECT_EQ(from_text.digest(), store.digest());
  EXPECT_EQ(from_bin.digest(), store.digest());

  // And the binary file is meaningfully smaller than fixed records.
  std::ifstream bin_in(bin_path, std::ios::binary | std::ios::ate);
  EXPECT_LT(static_cast<double>(bin_in.tellg()) * 2,
            kFixedRecordFrameBytes * static_cast<double>(store.size()));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

// --- CRC32 known answers ----------------------------------------------------

/// Bit-at-a-time CRC-32 (IEEE, reflected): the reference the table-driven
/// implementation must match at every length and alignment.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..67 cover the 8-byte main loop and every tail length; start
  // offsets 0..7 put the main loop on every alignment.
  Rng rng;
  std::vector<std::uint8_t> buf(8 + 67);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len), crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// --- golden encoder bytes ---------------------------------------------------
//
// The digests below were computed with the original byte-at-a-time encoder
// (sorted dictionaries with per-record binary search, bytewise CRC).  Any
// encoder rewrite must reproduce them exactly: the v2 bytes, the stats and
// the suppression table's behaviour are part of the format contract.

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// One golden row: digest of every encoded byte plus the summed stats and
/// the table's end state.
struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t supers = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t hits = 0;       ///< SuppressionTable::hits()
  std::uint64_t evictions = 0;  ///< SuppressionTable::evictions()

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{0x" << std::hex << g.digest << std::dec << "ull, " << g.bytes << ", "
            << g.records << ", " << g.supers << ", " << g.suppressed << ", "
            << g.table_hits << ", " << g.hits << ", " << g.evictions << "}";
}

/// Accumulates encode calls into a Golden row.
struct GoldenEncoder {
  std::vector<std::uint8_t> all;
  Golden row;

  void encode(const Event* events, std::size_t count, SuppressionTable* table) {
    std::vector<std::uint8_t> out;
    const V2EncodeStats stats = encode_v2_blocks(events, count, table, out);
    EXPECT_EQ(stats.bytes, out.size());
    all.insert(all.end(), out.begin(), out.end());
    row.bytes += stats.bytes;
    row.records += stats.records;
    row.supers += stats.supers;
    row.suppressed += stats.suppressed;
    row.table_hits += stats.table_hits;
  }
  void finish_table(const SuppressionTable* table) {
    if (table == nullptr) return;
    row.hits += table->hits();
    row.evictions += table->evictions();
  }
  Golden result() {
    row.digest = fnv1a64(all);
    return row;
  }
};

/// A seeded burst stream cut into spills of random size: call-burst
/// patterns of period 1-17 drawn from a small recurring pool (so the table
/// hits across spills), perturbed repetitions, plain noise, timestamps that
/// wrap through INT64_MAX, and aux values at the int64 extremes.
std::vector<std::vector<Event>> burst_spills(std::uint64_t seed) {
  Rng rng;
  rng.state ^= seed * 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4; ++i) rng.next();
  const auto pick = [&rng](std::uint64_t n) { return rng.next() % n; };
  const auto extreme_aux = [&]() -> std::int64_t {
    switch (pick(6)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return -1;
      default: return static_cast<std::int64_t>(pick(64));
    }
  };
  const std::int32_t pid = static_cast<std::int32_t>(pick(1000)) - 500;
  std::uint64_t t = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) -
                    (std::uint64_t{1} << 22) * (1 + pick(8));
  const auto make = [&](std::uint64_t time, EventKind kind, std::int32_t code,
                        std::int64_t aux) {
    // Mostly one pid/tid (a spill run's shape), occasionally another.
    const std::int32_t p = pick(50) == 0 ? pid + 1 : pid;
    const std::int32_t tid = pick(20) == 0 ? static_cast<std::int32_t>(pick(4)) : 0;
    return make_event(static_cast<sim::TimeNs>(time), p, tid, kind, code, aux);
  };

  struct Pattern {
    std::vector<Event> slots;  ///< time holds the offset within one repetition
    std::uint64_t stride = 0;
  };
  std::vector<Pattern> pool;
  for (int k = 0; k < 6; ++k) {
    Pattern pattern;
    const std::size_t period = 1 + pick(17);
    std::uint64_t offset = 0;
    for (std::size_t j = 0; j < period; ++j) {
      pattern.slots.push_back(make_event(
          static_cast<sim::TimeNs>(offset), pid, 0,
          static_cast<EventKind>(pick(static_cast<int>(EventKind::kMarker) + 1)),
          static_cast<std::int32_t>(pick(24)), extreme_aux()));
      offset += pick(3) == 0 ? 0 : 1 + pick(200);
    }
    pattern.stride = pick(10) == 0 ? (std::uint64_t{1} << 40) + pick(99) : offset + pick(500);
    pool.push_back(std::move(pattern));
  }

  std::vector<Event> stream;
  while (stream.size() < 5 * kBlockRecords) {
    if (pick(10) < 7) {
      const Pattern& pattern = pool[pick(pool.size())];
      const std::uint64_t reps = 1 + pick(pick(4) == 0 ? 300 : 12);
      for (std::uint64_t r = 0; r < reps; ++r) {
        for (const Event& slot : pattern.slots) {
          Event e = slot;
          e.time = static_cast<sim::TimeNs>(t + static_cast<std::uint64_t>(slot.time));
          stream.push_back(e);
        }
        t += pattern.stride;
        if (pick(40) == 0) ++t;  // break the stride mid-run
      }
    } else {
      const std::uint64_t plain = 1 + pick(30);
      for (std::uint64_t j = 0; j < plain; ++j) {
        t += pick(8) == 0 ? std::uint64_t{0} - pick(1000) : pick(3000);
        stream.push_back(make(t, static_cast<EventKind>(pick(11)),
                              static_cast<std::int32_t>(pick(40)) - 20, extreme_aux()));
      }
    }
  }

  std::vector<std::vector<Event>> spills;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t n = std::min(stream.size() - at, 1 + pick(3 * kBlockRecords));
    spills.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(at),
                        stream.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
  }
  return spills;
}

/// Encode 16 seeded burst streams, each with a fresh table of `capacity`
/// persisting across that stream's spills (or no table when capacity < 0).
Golden golden_bursts(long capacity) {
  GoldenEncoder enc;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SuppressionTable table(capacity < 0 ? 0 : static_cast<std::size_t>(capacity));
    SuppressionTable* t = capacity < 0 ? nullptr : &table;
    for (const auto& spill : burst_spills(seed)) enc.encode(spill.data(), spill.size(), t);
    enc.finish_table(t);
  }
  return enc.result();
}

TEST(TraceCodecV2Golden, BurstStreamsWithoutTable) {
  EXPECT_EQ(golden_bursts(-1), (Golden{0x61cff45e0cb2618eull, 3302738, 343969, 0, 0, 0, 0, 0}));
}

TEST(TraceCodecV2Golden, BurstStreamsTableCapacityZero) {
  EXPECT_EQ(golden_bursts(0), (Golden{0x49b2536b1ae333d0ull, 418193, 343969, 1613, 301859, 0, 0, 0}));
}

TEST(TraceCodecV2Golden, BurstStreamsTableCapacityThree) {
  EXPECT_EQ(golden_bursts(3), (Golden{0xef813f60a45b17d7ull, 418665, 343969, 1614, 301825, 1130, 1130, 430}));
}

TEST(TraceCodecV2Golden, BurstStreamsTableCapacity1024) {
  EXPECT_EQ(golden_bursts(1024), (Golden{0x5332d7cba313dec0ull, 418695, 343969, 1614, 301822, 1446, 1446, 0}));
}

TEST(TraceCodecV2Golden, WorstCaseBlockMaximisesEveryVarint) {
  // One full block whose every item is as long as the format allows:
  // all-distinct pid/tid/code spanning the int32 range (5-byte dictionary
  // deltas, 2-byte indices), time deltas of +-2^63 and aux at the int64
  // extremes (10-byte varints).  No two records share fields, so nothing
  // is suppressed.
  std::vector<Event> events;
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kSpan = std::int64_t{std::numeric_limits<std::uint32_t>::max()};
  for (std::size_t i = 0; i < kBlockRecords; ++i) {
    const auto spread = [&](std::size_t k) {
      return static_cast<std::int32_t>(kMin32 + kSpan * static_cast<std::int64_t>(k) /
                                                    static_cast<std::int64_t>(kBlockRecords - 1));
    };
    events.push_back(make_event(
        (i % 2) == 0 ? 0 : std::numeric_limits<std::int64_t>::min(), spread(i),
        spread(kBlockRecords - 1 - i), static_cast<EventKind>(i % 11),
        spread((i * 1237) % kBlockRecords),
        (i % 2) == 0 ? std::numeric_limits<std::int64_t>::min()
                     : std::numeric_limits<std::int64_t>::max()));
  }
  GoldenEncoder enc;
  SuppressionTable table(1024);
  enc.encode(events.data(), events.size(), &table);
  enc.finish_table(&table);
  const Golden row = enc.result();
  EXPECT_EQ(row, (Golden{0x1d8edfc0904f0666ull, 147091, 4096, 0, 0, 0, 0, 0}));
  EXPECT_EQ(row.supers, 0u);
  EXPECT_EQ(decode_all(enc.all).size(), kBlockRecords);
}

/// A sweep3d Full/16 trace: the trace_spill workload's app and scale at a
/// quarter of its ranks, long enough for several 256 KiB runs per rank.
std::vector<Event> sweep3d_trace() {
  dynprof::Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 16;
  options.policy = dynprof::Policy::kFull;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  return launch.trace()->merged();
}

TEST(TraceCodecV2Golden, Sweep3dSpillShapedAndMerged) {
  const std::vector<Event> merged = sweep3d_trace();
  ASSERT_FALSE(merged.empty());

  // Spill-shaped: each rank's stream cut into 256 KiB runs, one table per
  // rank persisting across its runs -- what TraceShard::spill encodes.
  constexpr std::size_t kRunRecords = 256 * 1024 / sizeof(Event);
  std::int32_t max_pid = 0;
  for (const Event& e : merged) max_pid = std::max(max_pid, e.pid);
  std::vector<std::vector<Event>> per_pid(static_cast<std::size_t>(max_pid) + 1);
  for (const Event& e : merged) per_pid[static_cast<std::size_t>(e.pid)].push_back(e);
  GoldenEncoder spill;
  for (const auto& stream : per_pid) {
    SuppressionTable table(ShardOptions{}.suppression_table_capacity);
    for (std::size_t at = 0; at < stream.size(); at += kRunRecords) {
      spill.encode(stream.data() + at, std::min(kRunRecords, stream.size() - at), &table);
    }
    spill.finish_table(&table);
  }
  EXPECT_EQ(spill.result(), (Golden{0x37eef6e91217e00eull, 1807391, 284352, 4609, 51168, 4593, 4593, 0}));

  // Merged: the whole time-ordered trace through one table, as
  // TraceStore::write_binary encodes a v2 file.
  GoldenEncoder file;
  SuppressionTable table(1024);
  file.encode(merged.data(), merged.size(), &table);
  file.finish_table(&table);
  EXPECT_EQ(file.result(), (Golden{0x9a739d8072b803ffull, 2118997, 284352, 3, 21, 2, 2, 0}));
}

}  // namespace
}  // namespace dyntrace::vt
