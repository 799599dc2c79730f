// Streaming event cursors: pull-based readers over sorted event runs and
// the k-way merge that combines them.
//
// Analysis never materializes a job's full merged event vector; it pulls
// events one at a time from a MergeCursor whose memory footprint is
// O(number of runs), independent of trace size (spilled runs stream from
// disk through a fixed-size chunk buffer).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vt/event.hpp"
#include "vt/trace_codec_v2.hpp"

namespace dyntrace::vt {

/// Pull-based stream of events.  next() fills `out` and returns true, or
/// returns false once the stream is exhausted.  A cursor hands out its
/// events in batches: next() copies from the current batch inline and
/// calls the virtual refill() only when the batch runs out, and a
/// MergeCursor compares its inputs' head events where they sit.  Each
/// cursor's batch is its format's CRC granule -- a whole vector, a v2
/// block, or a single v1 record -- so a corrupt v1 frame fails only when
/// the reader reaches it.
class EventCursor {
 public:
  virtual ~EventCursor() = default;

  bool next(Event& out) {
    if (cur_ == end_ && !refill()) return false;
    out = *cur_++;
    return true;
  }

 protected:
  /// Point [cur_, end_) at the next non-empty batch; false once exhausted.
  /// Throws dyntrace::Error on corrupt input.
  virtual bool refill() = 0;

  const Event* cur_ = nullptr;
  const Event* end_ = nullptr;

 private:
  friend class MergeCursor;  ///< reads and advances its inputs' batches
};

/// Cursor over an owned vector (callers pass it already sorted when the
/// cursor feeds a merge).  The vector is its one batch.
class VectorCursor final : public EventCursor {
 public:
  explicit VectorCursor(std::vector<Event> events) : events_(std::move(events)) {}

 private:
  bool refill() override;

  std::vector<Event> events_;
  bool served_ = false;
};

/// Cursor over `count` consecutive binary records starting at byte `offset`
/// of a file, decoded through a fixed-size chunk buffer -- the run is never
/// resident in memory as a whole.  Throws dyntrace::Error if the file ends
/// before `count` records were read or a record fails to decode.
class FileRunCursor final : public EventCursor {
 public:
  FileRunCursor(const std::string& path, std::uint64_t offset, std::uint64_t count);

 private:
  bool refill() override;  ///< decodes one record
  void read_chunk();

  std::string path_;
  std::ifstream in_;
  std::uint64_t remaining_;
  std::vector<std::uint8_t> chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_records_ = 0;
  Event record_;  ///< the current one-record batch
};

/// Cursor over `count` consecutive CRC-framed spill records (kSpillFrameBytes
/// each) starting at byte `offset` of a file, streamed through a fixed-size
/// chunk buffer.  Strict: throws dyntrace::Error if the file ends early or a
/// frame fails its CRC -- callers bound `count` by salvage_frame_count() when
/// the run may be torn.
class FramedRunCursor final : public EventCursor {
 public:
  FramedRunCursor(const std::string& path, std::uint64_t offset, std::uint64_t count);

 private:
  bool refill() override;  ///< decodes one record
  void read_chunk();

  std::string path_;
  std::ifstream in_;
  std::uint64_t remaining_;
  std::vector<std::uint8_t> chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_records_ = 0;
  Event record_;  ///< the current one-record batch
};

/// Salvage scan: the number of leading intact frames in the file, stopping
/// at the first short, CRC-corrupt, or unknown-kind frame (the torn tail).
std::uint64_t salvage_frame_count(const std::string& path);

/// Cursor over `count` records encoded as v2 blocks starting at byte
/// `offset` of a file (a v2 spill run, or a v2 trace file past its header).
/// Blocks stream one at a time; each block is drained into a chunk buffer in
/// a single decode pass, so resident memory is one block's expanded records
/// (at most kBlockRecords, the same residency class as the v1 chunk readers)
/// -- never the run's total record count.  Strict: throws dyntrace::Error on
/// a torn, CRC-corrupt, or malformed block -- callers bound `count` by
/// salvage_v2_scan() when the run may be torn.
class BlockRunCursor final : public EventCursor {
 public:
  BlockRunCursor(const std::string& path, std::uint64_t offset, std::uint64_t count);

 private:
  bool refill() override;  ///< decodes one block
  void open_next_block();

  std::string path_;
  std::ifstream in_;
  std::uint64_t remaining_;
  std::vector<std::uint8_t> block_;
  BlockDecoder decoder_;
  std::vector<Event> chunk_;
};

/// K-way merge over sorted child cursors via a min-heap keyed by EventOrder.
/// Ties resolve to the lower child index, so runs split from one append
/// stream (earlier run = lower index) merge append-stably, and the merged
/// order is deterministic for a given set of inputs.  The merge fills its
/// own batches, taking each event straight from the winning input's batch.
class MergeCursor final : public EventCursor {
 public:
  explicit MergeCursor(std::vector<std::unique_ptr<EventCursor>> inputs);

 private:
  /// A heap entry: a live input's index with its head event's time copied
  /// alongside, so most comparisons touch only the heap array.
  struct Head {
    sim::TimeNs time;
    std::uint32_t input;
  };

  bool refill() override;

  /// True when a's head event sorts after b's (ties to the higher input
  /// index, so the lower index wins) -- a strict total order, which makes
  /// the merged sequence independent of heap mechanics.
  bool after(const Head& a, const Head& b) const;

  /// Restore the heap property after the root's head event changed
  /// (replace-top sift: one root-to-leaf pass instead of pop_heap +
  /// push_heap's two).
  void sift_down();

  std::vector<std::unique_ptr<EventCursor>> inputs_;
  std::vector<Head> heap_;    ///< min-heap of live inputs' heads
  std::vector<Event> batch_;  ///< merged events handed out by next()
};

/// Drain a cursor into a vector (tests and small traces only).
std::vector<Event> collect(EventCursor& cursor);

}  // namespace dyntrace::vt
