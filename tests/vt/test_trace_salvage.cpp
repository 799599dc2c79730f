// Crash-safe spill runs: atomic tmp+fsync+rename publication, per-block CRC
// framing, and the torn-run salvage path (every complete block before the
// tear is recovered; the corrupt tail is skipped and counted).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "vt/trace_codec_v2.hpp"
#include "vt/trace_reader.hpp"
#include "vt/trace_shard.hpp"
#include "vt/trace_store.hpp"

namespace dyntrace::vt {
namespace {

Event make_event(sim::TimeNs time, std::int32_t pid, std::int32_t code) {
  Event e;
  e.time = time;
  e.pid = pid;
  e.kind = EventKind::kEnter;
  e.code = code;
  return e;
}

/// `count` events of one pid, encoded as exactly one block.
std::vector<std::uint8_t> one_block(sim::TimeNs t0, std::size_t count) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(make_event(t0 + static_cast<sim::TimeNs>(i), 0,
                                static_cast<std::int32_t>(t0) + static_cast<std::int32_t>(i)));
  }
  std::vector<std::uint8_t> bytes;
  encode_v2_blocks(events.data(), events.size(), nullptr, bytes);
  return bytes;
}

TEST(SpillFrame, CrcDetectsCorruption) {
  // The block is the spill run's CRC granule: a flip anywhere in it --
  // magic, checksum, length, count or payload -- fails validation.
  const Event event = make_event(12345, 3, 42);
  std::vector<std::uint8_t> block;
  encode_v2_blocks(&event, 1, nullptr, block);
  BlockDecoder decoder;
  std::size_t block_bytes = 0;
  std::uint32_t records = 0;
  ASSERT_TRUE(decoder.reset(block.data(), block.size(), &block_bytes, &records));
  ASSERT_EQ(block_bytes, block.size());
  ASSERT_EQ(records, 1u);
  Event decoded;
  ASSERT_TRUE(decoder.next(decoded));
  EXPECT_EQ(decoded.time, event.time);
  EXPECT_EQ(decoded.pid, event.pid);
  EXPECT_EQ(decoded.code, event.code);
  for (std::size_t i = 0; i < block.size(); ++i) {
    std::vector<std::uint8_t> bad = block;
    bad[i] ^= 0x40;
    EXPECT_FALSE(decoder.reset(bad.data(), bad.size(), &block_bytes, &records))
        << "flip at byte " << i;
  }
}

TEST(TraceShard, CleanSpillPublishesAtomically) {
  ShardOptions options;
  options.spill_budget_bytes = 4 * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  TraceShard shard(7, options);
  for (int i = 0; i < 9; ++i) shard.append(make_event(i, 7, i));

  EXPECT_EQ(shard.spill_runs(), 2u);
  EXPECT_FALSE(shard.torn());
  EXPECT_EQ(shard.lost_records(), 0u);
  EXPECT_EQ(shard.size(), 9u);

  // No .tmp file may survive a clean spill (satellite 2: the run is fully
  // written, fsynced and renamed into place).
  std::size_t tmp_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.spill_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("shard7") != std::string::npos &&
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      ++tmp_files;
    }
  }
  EXPECT_EQ(tmp_files, 0u);

  // The merged view sees every record in order.
  auto cursor = shard.cursor();
  Event event;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(cursor->next(event)) << i;
    EXPECT_EQ(event.code, i);
  }
  EXPECT_FALSE(cursor->next(event));
}

TEST(TraceShard, TornSpillSalvagesLeadingFrames) {
  // Two-block runs.  Run 1 of pid 9 loses its last byte, which tears its
  // second block: exactly the first block's records are salvageable.
  const std::size_t per_run = 2 * kBlockRecords;
  ShardOptions options;
  options.spill_budget_bytes = per_run * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  options.spill_fault = [](std::int32_t pid, std::uint64_t run, std::size_t bytes) {
    if (pid == 9 && run == 1) return bytes - 1;
    return bytes;
  };
  TraceShard shard(9, options);
  const std::size_t total = 3 * per_run;
  for (std::size_t i = 0; i < total; ++i) {
    shard.append(make_event(static_cast<sim::TimeNs>(i), 9, static_cast<std::int32_t>(i)));
  }

  EXPECT_TRUE(shard.torn());
  EXPECT_EQ(shard.salvaged_records(), kBlockRecords);
  // Lost: the torn tail of run 1, plus everything appended after the tear
  // (the writer is gone).
  EXPECT_EQ(shard.lost_records(), total - per_run - kBlockRecords);

  // The shard's merged view = run 0 intact + the salvaged block of run 1.
  auto cursor = shard.cursor();
  Event event;
  std::size_t read = 0;
  while (cursor->next(event)) {
    EXPECT_EQ(event.code, static_cast<std::int32_t>(read));
    ++read;
  }
  EXPECT_EQ(read, per_run + kBlockRecords);
}

TEST(TraceStore, SalvageStatsAggregateAcrossShards) {
  const std::size_t per_run = 2 * kBlockRecords;
  TraceStore::Options options;
  options.spill_budget_bytes = per_run * sizeof(Event);
  options.spill_dir = ::testing::TempDir();
  options.spill_fault = [](std::int32_t pid, std::uint64_t run, std::size_t bytes) {
    if (pid == 1 && run == 0) return bytes - 1;  // keep 1 of 2 blocks
    return bytes;
  };
  TraceStore store(options);
  for (std::size_t i = 0; i < 2 * per_run; ++i) {
    const auto t = static_cast<sim::TimeNs>(i);
    store.append(make_event(t, 0, static_cast<std::int32_t>(i)));
    store.append(make_event(t, 1, static_cast<std::int32_t>(i)));
  }
  const auto stats = store.salvage_stats();
  EXPECT_EQ(stats.torn_shards, 1u);
  EXPECT_EQ(stats.salvaged_records, kBlockRecords);
  EXPECT_EQ(stats.lost_records, 3 * kBlockRecords);  // 1 block torn away + 1 run dropped after

  // The k-way merge still serves everything pid 0 wrote plus the salvaged
  // block -- corrupt tails are skipped, not fatal.
  std::size_t merged = 0;
  Event event;
  auto cursor = store.merge_cursor();
  while (cursor->next(event)) ++merged;
  EXPECT_EQ(merged, 2 * per_run + kBlockRecords);
}

TEST(TraceReader, SalvageFrameCountStopsAtFirstBadFrame) {
  const std::string path = ::testing::TempDir() + "/salvage_scan.bin";
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (int i = 0; i < 3; ++i) {
    starts.push_back(bytes.size());
    const std::vector<std::uint8_t> block = one_block(100 * i, 10);
    bytes.insert(bytes.end(), block.begin(), block.end());
  }
  bytes.insert(bytes.end(), 7, std::uint8_t{0xab});  // + short garbage tail
  bytes[starts[2] + kBlockHeaderBytes + 5] ^= 0xff;   // corrupt block 2's payload
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  const BlockSalvage salvage = salvage_v2_scan(path);
  EXPECT_EQ(salvage.blocks, 2u);
  EXPECT_EQ(salvage.records, 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dyntrace::vt
