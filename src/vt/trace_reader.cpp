#include "vt/trace_reader.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "vt/trace_format.hpp"

namespace dyntrace::vt {

namespace {

/// Records decoded per chunk refill (128 KiB of file per read).
constexpr std::size_t kChunkRecords = 4096;

}  // namespace

bool VectorCursor::refill() {
  if (served_ || events_.empty()) return false;
  served_ = true;
  cur_ = events_.data();
  end_ = cur_ + events_.size();
  return true;
}

FileRunCursor::FileRunCursor(const std::string& path, std::uint64_t offset,
                             std::uint64_t count)
    : path_(path), in_(path, std::ios::binary), remaining_(count) {
  DT_EXPECT(in_.good(), "cannot open trace file '", path_, "'");
  in_.seekg(static_cast<std::streamoff>(offset));
  DT_EXPECT(in_.good(), path_, ": cannot seek to run offset ", offset);
}

void FileRunCursor::read_chunk() {
  const std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, kChunkRecords));
  chunk_.resize(want * kTraceRecordBytes);
  in_.read(reinterpret_cast<char*>(chunk_.data()),
           static_cast<std::streamsize>(chunk_.size()));
  const auto got = static_cast<std::size_t>(in_.gcount());
  DT_EXPECT(got == chunk_.size(), path_, ": truncated trace data (expected ", remaining_,
            " more record(s))");
  chunk_pos_ = 0;
  chunk_records_ = want;
}

bool FileRunCursor::refill() {
  if (remaining_ == 0) return false;
  if (chunk_pos_ >= chunk_records_) read_chunk();
  record_ = decode_event(chunk_.data() + chunk_pos_ * kTraceRecordBytes, path_);
  ++chunk_pos_;
  --remaining_;
  cur_ = &record_;
  end_ = cur_ + 1;
  return true;
}

FramedRunCursor::FramedRunCursor(const std::string& path, std::uint64_t offset,
                                 std::uint64_t count)
    : path_(path), in_(path, std::ios::binary), remaining_(count) {
  DT_EXPECT(in_.good(), "cannot open spill run '", path_, "'");
  in_.seekg(static_cast<std::streamoff>(offset));
  DT_EXPECT(in_.good(), path_, ": cannot seek to run offset ", offset);
}

void FramedRunCursor::read_chunk() {
  const std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, kChunkRecords));
  chunk_.resize(want * kSpillFrameBytes);
  in_.read(reinterpret_cast<char*>(chunk_.data()),
           static_cast<std::streamsize>(chunk_.size()));
  const auto got = static_cast<std::size_t>(in_.gcount());
  DT_EXPECT(got == chunk_.size(), path_, ": truncated spill run (expected ", remaining_,
            " more frame(s))");
  chunk_pos_ = 0;
  chunk_records_ = want;
}

bool FramedRunCursor::refill() {
  if (remaining_ == 0) return false;
  if (chunk_pos_ >= chunk_records_) read_chunk();
  const bool ok = decode_spill_frame(chunk_.data() + chunk_pos_ * kSpillFrameBytes, record_);
  DT_EXPECT(ok, path_, ": corrupt spill frame (CRC mismatch) with ", remaining_,
            " frame(s) expected");
  ++chunk_pos_;
  --remaining_;
  cur_ = &record_;
  end_ = cur_ + 1;
  return true;
}

std::uint64_t salvage_frame_count(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DT_EXPECT(in.good(), "cannot open spill run '", path, "'");
  std::uint64_t intact = 0;
  std::uint8_t frame[kSpillFrameBytes];
  Event scratch;
  while (true) {
    in.read(reinterpret_cast<char*>(frame), sizeof(frame));
    if (static_cast<std::size_t>(in.gcount()) < sizeof(frame)) break;
    if (!decode_spill_frame(frame, scratch)) break;
    ++intact;
  }
  return intact;
}

BlockRunCursor::BlockRunCursor(const std::string& path, std::uint64_t offset,
                               std::uint64_t count)
    : path_(path), in_(path, std::ios::binary), remaining_(count) {
  DT_EXPECT(in_.good(), "cannot open v2 trace '", path_, "'");
  in_.seekg(static_cast<std::streamoff>(offset));
  DT_EXPECT(in_.good(), path_, ": cannot seek to block offset ", offset);
}

void BlockRunCursor::open_next_block() {
  block_.resize(kBlockHeaderBytes);
  in_.read(reinterpret_cast<char*>(block_.data()),
           static_cast<std::streamsize>(kBlockHeaderBytes));
  DT_EXPECT(static_cast<std::size_t>(in_.gcount()) == kBlockHeaderBytes, path_,
            ": truncated v2 block header (expected ", remaining_, " more record(s))");
  const std::uint32_t payload_len = get_u32_le(block_.data() + 8);
  DT_EXPECT(payload_len <= kMaxBlockPayloadBytes, path_, ": oversize v2 block (",
            payload_len, " payload bytes)");
  block_.resize(kBlockHeaderBytes + payload_len);
  in_.read(reinterpret_cast<char*>(block_.data() + kBlockHeaderBytes),
           static_cast<std::streamsize>(payload_len));
  DT_EXPECT(static_cast<std::size_t>(in_.gcount()) == payload_len, path_,
            ": truncated v2 block payload (expected ", remaining_, " more record(s))");
  std::size_t block_bytes = 0;
  std::uint32_t record_count = 0;
  DT_EXPECT(decoder_.reset(block_.data(), block_.size(), &block_bytes, &record_count),
            path_, ": corrupt v2 block (bad magic or CRC mismatch) with ", remaining_,
            " record(s) expected");
  chunk_.resize(record_count);
  const std::uint32_t drained = decoder_.drain(chunk_.data(), record_count);
  DT_EXPECT(drained == record_count && !decoder_.failed(), path_,
            ": malformed v2 block payload with ", remaining_, " record(s) expected");
}

bool BlockRunCursor::refill() {
  while (remaining_ > 0) {
    open_next_block();
    if (chunk_.empty()) continue;  // tolerates empty blocks
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, chunk_.size()));
    remaining_ -= n;
    cur_ = chunk_.data();
    end_ = cur_ + n;
    return true;
  }
  return false;
}

bool MergeCursor::after(const Head& a, const Head& b) const {
  // EventOrder (time, pid, tid), then the input index.
  if (a.time != b.time) return a.time > b.time;
  const Event& x = *inputs_[a.input]->cur_;
  const Event& y = *inputs_[b.input]->cur_;
  if (x.pid != y.pid) return x.pid > y.pid;
  if (x.tid != y.tid) return x.tid > y.tid;
  return a.input > b.input;
}

MergeCursor::MergeCursor(std::vector<std::unique_ptr<EventCursor>> inputs)
    : inputs_(std::move(inputs)) {
  heap_.reserve(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    EventCursor& input = *inputs_[i];
    if (input.cur_ != input.end_ || input.refill()) {
      heap_.push_back(Head{input.cur_->time, static_cast<std::uint32_t>(i)});
    }
  }
  const auto later = [this](const Head& a, const Head& b) { return after(a, b); };
  // std::*_heap with a "comes later" comparator keeps the earliest head at
  // the front.  Invert by using it as a max-heap of "later" elements.
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void MergeCursor::sift_down() {
  const std::size_t n = heap_.size();
  const Head moving = heap_[0];
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    // Branch-free child pick: the time compare decides almost every step
    // and is unpredictable, so select instead of jumping.
    const std::size_t earliest =
        left + static_cast<std::size_t>(left + 1 < n && after(heap_[left], heap_[left + 1]));
    if (!after(moving, heap_[earliest])) break;
    heap_[i] = heap_[earliest];  // hole technique
    i = earliest;
  }
  heap_[i] = moving;
}

bool MergeCursor::refill() {
  // The comparator is a strict total order (EventOrder + input index), so
  // the emitted sequence is independent of how the heap restores itself:
  // replace the root's head in place and sift once, rather than pop +
  // re-push.
  constexpr std::size_t kBatchEvents = 256;
  batch_.resize(kBatchEvents);
  std::size_t n = 0;
  while (n < kBatchEvents && !heap_.empty()) {
    EventCursor& input = *inputs_[heap_[0].input];
    batch_[n++] = *input.cur_++;
    if (input.cur_ != input.end_ || input.refill()) {
      heap_[0].time = input.cur_->time;
      sift_down();
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down();
    }
  }
  cur_ = batch_.data();
  end_ = cur_ + n;
  return n > 0;
}

std::vector<Event> collect(EventCursor& cursor) {
  std::vector<Event> out;
  Event e;
  while (cursor.next(e)) out.push_back(e);
  return out;
}

}  // namespace dyntrace::vt
