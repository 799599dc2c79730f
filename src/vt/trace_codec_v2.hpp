// Trace format v2: the block codec (DESIGN.md §6).
//
// A v2 stream -- the payload of a v2 trace file and the entire body of a
// v2 spill run -- is a sequence of self-contained *blocks*:
//
//   block header (16 bytes):
//     [0..4)   block magic "DTB2"
//     [4..8)   CRC32 over bytes [8 .. 16 + payload length)
//     [8..12)  payload length in bytes (u32, <= kMaxBlockPayloadBytes)
//     [12..16) record count after super-record expansion (u32)
//   payload:
//     dict(pid) dict(tid) dict(code)   -- sorted unique values per block:
//                                         varint n, zigzag(first),
//                                         then n-1 ascending varint deltas
//     item*                            -- records and super-records
//
//   item   := plain | super
//   plain  := tag(kind) varint zigzag(time - prev_time)
//             varint pid_index varint tid_index varint code_index
//             varint zigzag(aux)
//   super  := tag(0x80) varint P varint N varint zigzag(stride)
//             P x plain                -- the pattern, deltas chained as
//                                         if the records were plain
//
// A super-record is N consecutive repetitions of a P-record call-burst
// pattern whose non-time fields repeat exactly and whose timestamps advance
// by exactly `stride` per repetition -- so expansion is bit-exact, and
// aggregate time is carried implicitly with zero error (the Arafa-style
// time compensation).  Decoders expand lazily: O(P) state, never N*P.
//
// Blocks are the CRC/salvage granule: a run torn mid-write keeps every
// complete, CRC-valid block before the tear (tears mid-header, mid-varint
// and mid-super all invalidate exactly the torn block).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vt/event.hpp"
#include "vt/trace_format.hpp"

namespace dyntrace::vt {

inline constexpr std::uint8_t kBlockMagic[4] = {'D', 'T', 'B', '2'};
inline constexpr std::size_t kBlockHeaderBytes = 16;
/// Input records encoded per block (the dictionary + salvage granule).
inline constexpr std::size_t kBlockRecords = 4096;
/// Sanity bound used by readers before trusting a block's length field.
inline constexpr std::size_t kMaxBlockPayloadBytes = std::size_t{1} << 24;
/// Longest call-burst pattern the suppressor searches for.
inline constexpr std::size_t kMaxSuppressionPeriod = 16;
/// Record-item tag bit marking a super-record.
inline constexpr std::uint8_t kSuperTag = 0x80;

/// Bounded memo of call-burst patterns the suppressor has collapsed, keyed
/// by a fingerprint of the pattern head.  Lookups steer the period search
/// (the cached period is tried first), and the bound is the memory-safety
/// contract: an adversarial trace that streams never-repeating patterns
/// evicts in deterministic insertion (FIFO) order -- mirroring the dpcl
/// dedup table -- instead of growing without limit.  One table per shard,
/// persisting across that shard's spills.  The first insertion reserves the
/// whole capacity, so a filling table never rehashes.
class SuppressionTable {
 public:
  explicit SuppressionTable(std::size_t capacity) : capacity_(capacity) {}

  /// Cached period for a pattern-head fingerprint; 0 = not cached.
  std::uint32_t lookup(std::uint64_t signature) const {
    const auto it = map_.find(signature);
    return it == map_.end() ? 0 : it->second;
  }

  /// Insert or refresh a detected pattern.  A full table evicts its oldest
  /// insertion first (refreshes do not reorder, exactly like dpcl dedup).
  void note(std::uint64_t signature, std::uint32_t period);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Lookups whose cached period matched again (the table's hit counter).
  std::uint64_t hits() const { return hits_; }
  void count_hit() { ++hits_; }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
  std::vector<std::uint64_t> fifo_;  ///< insertion order ring; head_ = oldest
  std::size_t head_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
};

/// What one encode pass produced (all counts are logical records).
struct V2EncodeStats {
  std::uint64_t bytes = 0;       ///< encoded bytes appended to the output
  std::uint64_t records = 0;     ///< input records covered (= expanded count)
  std::uint64_t supers = 0;      ///< super-records emitted
  std::uint64_t suppressed = 0;  ///< records folded into supers beyond the stored pattern
  std::uint64_t table_hits = 0;  ///< detections where the cached period matched
};

/// Encode `count` (time-sorted) events as v2 blocks appended to `out`.
/// `table` steers and accounts suppression; pass nullptr to disable
/// suppression entirely (every record encodes plain).
V2EncodeStats encode_v2_blocks(const Event* events, std::size_t count,
                               SuppressionTable* table, std::vector<std::uint8_t>& out);

/// Streaming decoder for one block.  reset() validates framing and CRC
/// against the bytes at `block` (which must stay alive while decoding);
/// next() then yields expanded records one at a time.
class BlockDecoder {
 public:
  /// Validate the block at [block, block + available).  On success fills
  /// `block_bytes` (header + payload span to skip for the next block) and
  /// `record_count` (expanded), and returns true.  Returns false -- never
  /// throws -- on truncation, bad magic, an oversize length field, or a CRC
  /// mismatch, so salvage scans can probe torn tails safely.
  bool reset(const std::uint8_t* block, std::size_t available, std::size_t* block_bytes,
             std::uint32_t* record_count);

  /// Next expanded record; false at end of block or on a malformed payload
  /// (check failed() to distinguish -- CRC-valid blocks only fail on a
  /// writer bug or a deliberately crafted file).
  bool next(Event& out);

  /// Decode up to `max` records into `out` in one pass: the merge-path fast
  /// lane (one call per block keeps the parse state in registers instead of
  /// reloading it per record).  Returns the number decoded; stops early at
  /// end of block or on a malformed payload (check failed()).
  std::uint32_t drain(Event* out, std::uint32_t max);

  bool failed() const { return failed_; }

 private:
  bool read_dict(std::vector<std::int64_t>& dict);
  bool decode_plain(std::uint8_t tag, Event& out);

  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint32_t remaining_ = 0;
  bool failed_ = false;

  std::vector<std::int64_t> pids_;
  std::vector<std::int64_t> tids_;
  std::vector<std::int64_t> codes_;
  std::uint64_t prev_time_ = 0;

  // Lazy super-record expansion state: O(pattern) memory however large the
  // repeat count is.
  std::vector<Event> pattern_;
  std::uint64_t stride_ = 0;
  std::uint64_t reps_left_ = 0;   ///< repetitions still to emit (incl. current)
  std::size_t pattern_pos_ = 0;   ///< next pattern slot within the current rep
  std::uint64_t rep_offset_ = 0;  ///< stride * reps emitted so far
};

/// Salvage scan over a bare block sequence (a v2 spill run): leading intact
/// blocks and their expanded record total, stopping at the first torn or
/// corrupt block.  Every counted record is guaranteed decodable.
struct BlockSalvage {
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;
};
BlockSalvage salvage_v2_scan(const std::string& path);

}  // namespace dyntrace::vt
