#include "vt/trace_codec_v2.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

#include "support/common.hpp"

namespace dyntrace::vt {

namespace {

/// FNV-1a over the non-time fields: the suppressor's record fingerprint.
/// Equal fields always hash equal, so a signature mismatch is a cheap
/// early-out before the exact field compare (collisions only cost a compare).
std::uint64_t field_signature(const Event& e) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.pid)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.tid)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.code)));
  mix(static_cast<std::uint64_t>(e.aux));
  return h;
}

bool same_fields(const Event& a, const Event& b) {
  return a.kind == b.kind && a.pid == b.pid && a.tid == b.tid && a.code == b.code &&
         a.aux == b.aux;
}

/// Worst-case encoded size of an n-record block: the header, three
/// dictionaries of at most n entries, and n plain items of a tag plus five
/// varints.  A super item writes a tag and three varints beyond its
/// pattern's plain items but replaces at least two more records, so it
/// never exceeds the plain bound.
constexpr std::size_t block_bound(std::size_t n) {
  return kBlockHeaderBytes + 3 * (n + 1) * kMaxVarintBytes + n * (1 + 5 * kMaxVarintBytes);
}
static_assert(block_bound(kBlockRecords) - kBlockHeaderBytes <= kMaxBlockPayloadBytes);

/// Open-addressed value -> first-seen id map over one block column, shared
/// by the three columns of a block.  Bumping the epoch empties it without
/// touching the slots.
class ColumnHash {
 public:
  ColumnHash() : slots_(kSlots) {}

  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale slots could alias the new epoch
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  /// Id of `value`, inserted as `next_id` if it is not present yet.
  std::uint32_t find_or_insert(std::int32_t value, std::uint32_t next_id) {
    for (std::size_t s = home(value);; s = (s + 1) & (kSlots - 1)) {
      Slot& slot = slots_[s];
      if (slot.epoch != epoch_) {
        slot = Slot{epoch_, value, next_id};
        return next_id;
      }
      if (slot.value == value) return slot.id;
    }
  }

 private:
  static constexpr std::size_t kSlots = 2 * kBlockRecords;  // load factor <= 1/2
  static constexpr int kSlotBits = std::bit_width(kSlots) - 1;
  static_assert(kSlots == std::size_t{1} << kSlotBits);

  struct Slot {
    std::uint32_t epoch = 0;
    std::int32_t value = 0;
    std::uint32_t id = 0;
  };

  static std::size_t home(std::int32_t value) {
    return (static_cast<std::uint32_t>(value) * 0x9e3779b1u) >> (32 - kSlotBits);
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
};

/// One id column of a block: its sorted unique values (the dictionary) and
/// each record's index into them, built in one pass over the column.
class ColumnDict {
 public:
  void build(const Event* events, std::size_t n, std::int32_t Event::*field,
             ColumnHash& hash) {
    values_.clear();
    const std::int32_t first = events[0].*field;
    std::size_t run = 1;
    while (run < n && events[run].*field == first) ++run;
    std::fill_n(index_, run, std::uint16_t{0});
    if (run == n) {  // all-equal: a spill run has one pid and usually one tid
      values_.push_back(first);
      return;
    }
    // First-seen ids while scanning, packed as value * 2^16 + id so that
    // sorting the distinct values also yields each id's rank.
    hash.clear();
    hash.find_or_insert(first, 0);
    keys_.assign(1, pack(first, 0));
    std::int32_t prev = first;
    std::uint16_t prev_id = 0;
    for (std::size_t i = run; i < n; ++i) {
      const std::int32_t value = events[i].*field;
      if (value != prev) {
        prev = value;
        const auto next_id = static_cast<std::uint32_t>(keys_.size());
        prev_id = static_cast<std::uint16_t>(hash.find_or_insert(value, next_id));
        if (prev_id == next_id) keys_.push_back(pack(value, prev_id));
      }
      index_[i] = prev_id;
    }
    std::sort(keys_.begin(), keys_.end());
    std::uint16_t rank[kBlockRecords];
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      rank[keys_[r] & 0xffff] = static_cast<std::uint16_t>(r);
      values_.push_back(keys_[r] >> 16);
    }
    for (std::size_t i = 0; i < n; ++i) index_[i] = rank[index_[i]];
  }

  /// Sorted unique values.
  const std::vector<std::int64_t>& values() const { return values_; }
  /// Dictionary index of record `i`'s value.
  std::uint64_t index(std::size_t i) const { return index_[i]; }

 private:
  static std::int64_t pack(std::int32_t value, std::uint32_t id) {
    return static_cast<std::int64_t>(value) * 65536 + static_cast<std::int64_t>(id);
  }

  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> keys_;
  std::uint16_t index_[kBlockRecords];
};
static_assert(kBlockRecords <= 65536, "dictionary ids are 16-bit");

std::uint8_t* put_dict(std::uint8_t* p, const std::vector<std::int64_t>& dict) {
  p += put_varint(p, dict.size());
  p += put_varint(p, zigzag_encode(dict[0]));
  for (std::size_t i = 1; i < dict.size(); ++i) {
    p += put_varint(p, static_cast<std::uint64_t>(dict[i]) -
                           static_cast<std::uint64_t>(dict[i - 1]));
  }
  return p;
}

/// How many consecutive repetitions of the period-P pattern starting at `i`
/// exist in [i, n), counting the pattern itself.  Returns 0 unless there are
/// at least two repetitions with exactly-equal fields and exactly-stride
/// timestamps (u64 wrap arithmetic, so pathological times cannot UB).
std::uint64_t count_reps(const Event* ev, const std::uint64_t* sigs, std::size_t n,
                         std::size_t i, std::size_t period, std::uint64_t* stride_out) {
  if (period == 0 || period > kMaxSuppressionPeriod || i + 2 * period > n) return 0;
  for (std::size_t j = 0; j < period; ++j) {
    if (sigs[i + j] != sigs[i + period + j]) return 0;
  }
  const std::uint64_t stride = static_cast<std::uint64_t>(ev[i + period].time) -
                               static_cast<std::uint64_t>(ev[i].time);
  std::uint64_t reps = 1;
  while (i + (reps + 1) * period <= n) {
    bool ok = true;
    for (std::size_t j = 0; j < period && ok; ++j) {
      const Event& base = ev[i + j];
      const Event& cand = ev[i + reps * period + j];
      ok = sigs[i + j] == sigs[i + reps * period + j] && same_fields(base, cand) &&
           static_cast<std::uint64_t>(cand.time) ==
               static_cast<std::uint64_t>(base.time) + reps * stride;
    }
    if (!ok) break;
    ++reps;
  }
  if (reps < 2) return 0;
  *stride_out = stride;
  return reps;
}

/// A super-record only pays when it replaces at least two plain records.
bool worth_suppressing(std::size_t period, std::uint64_t reps) {
  return reps >= 2 && (reps - 1) * period >= 2;
}

/// Frees raw storage from ::operator new, which (unlike a vector) leaves the
/// worst-case block buffer untouched until the encoder writes it.
struct OperatorDelete {
  void operator()(std::uint8_t* p) const { ::operator delete(p); }
};

/// The encoder's per-call state, reused across the call's blocks.
struct BlockEncoder {
  ColumnHash hash;
  ColumnDict pids, tids, codes;
  std::vector<std::uint64_t> sigs;
  std::unique_ptr<std::uint8_t, OperatorDelete> buf;  ///< one block, worst-case size

  explicit BlockEncoder(std::size_t max_records)
      : sigs(max_records),
        buf(static_cast<std::uint8_t*>(::operator new(block_bound(max_records)))) {}

  /// One plain item: kind tag, chained time delta, dict indices, aux.
  std::uint8_t* put_plain(std::uint8_t* p, const Event* block, std::size_t k,
                          std::uint64_t& prev_time) const {
    const Event& e = block[k];
    *p++ = static_cast<std::uint8_t>(e.kind);
    const std::uint64_t t = static_cast<std::uint64_t>(e.time);
    p += put_varint(p, zigzag_encode(static_cast<std::int64_t>(t - prev_time)));
    prev_time = t;
    p += put_varint(p, pids.index(k));
    p += put_varint(p, tids.index(k));
    p += put_varint(p, codes.index(k));
    p += put_varint(p, zigzag_encode(e.aux));
    return p;
  }
};

}  // namespace

void SuppressionTable::note(std::uint64_t signature, std::uint32_t period) {
  if (capacity_ == 0) return;
  if (fifo_.empty()) {
    map_.reserve(capacity_);
    fifo_.reserve(capacity_);
  }
  const auto it = map_.find(signature);
  if (it != map_.end()) {
    it->second = period;  // refresh in place; insertion order is unchanged
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(fifo_[head_]);
    fifo_[head_] = signature;
    head_ = (head_ + 1) % capacity_;
    ++evictions_;
  } else {
    fifo_.push_back(signature);
  }
  map_.emplace(signature, period);
}

V2EncodeStats encode_v2_blocks(const Event* events, std::size_t count,
                               SuppressionTable* table, std::vector<std::uint8_t>& out) {
  V2EncodeStats stats;
  if (count == 0) return stats;
  BlockEncoder enc(std::min(kBlockRecords, count));
  std::uint64_t* sigs = enc.sigs.data();
  for (std::size_t base = 0; base < count;) {
    const std::size_t n = std::min(kBlockRecords, count - base);
    const Event* block = events + base;

    enc.pids.build(block, n, &Event::pid, enc.hash);
    enc.tids.build(block, n, &Event::tid, enc.hash);
    enc.codes.build(block, n, &Event::code, enc.hash);
    std::uint8_t* const header = enc.buf.get();
    std::uint8_t* p = header + kBlockHeaderBytes;
    p = put_dict(p, enc.pids.values());
    p = put_dict(p, enc.tids.values());
    p = put_dict(p, enc.codes.values());

    for (std::size_t i = 0; i < n; ++i) sigs[i] = field_signature(block[i]);

    std::uint64_t prev_time = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t period = 0;
      std::uint64_t reps = 0;
      std::uint64_t stride = 0;
      if (table != nullptr) {
        const std::uint32_t hint = table->lookup(sigs[i]);
        if (hint != 0) {
          reps = count_reps(block, sigs, n, i, hint, &stride);
          if (worth_suppressing(hint, reps)) {
            period = hint;
            table->count_hit();
            ++stats.table_hits;
          }
        }
        if (period == 0) {
          // Candidates in ascending order, as count_reps would try them; the
          // inline head compare is count_reps's own first test.
          for (std::size_t cand = 1;
               cand <= kMaxSuppressionPeriod && i + 2 * cand <= n; ++cand) {
            if (cand == hint || sigs[i + cand] != sigs[i]) continue;
            reps = count_reps(block, sigs, n, i, cand, &stride);
            if (worth_suppressing(cand, reps)) {
              period = cand;
              break;
            }
          }
        }
      }
      if (period != 0) {
        table->note(sigs[i], static_cast<std::uint32_t>(period));
        *p++ = kSuperTag;
        p += put_varint(p, period);
        p += put_varint(p, reps);
        p += put_varint(p, zigzag_encode(static_cast<std::int64_t>(stride)));
        for (std::size_t j = 0; j < period; ++j) p = enc.put_plain(p, block, i + j, prev_time);
        // The decoder's delta chain resumes after the *last expanded*
        // record, whose time the stride carries implicitly.
        prev_time = static_cast<std::uint64_t>(block[i + period - 1].time) +
                    (reps - 1) * stride;
        ++stats.supers;
        stats.suppressed += (reps - 1) * period;
        i += static_cast<std::size_t>(reps) * period;
      } else {
        p = enc.put_plain(p, block, i, prev_time);
        ++i;
      }
    }

    const std::size_t block_bytes = static_cast<std::size_t>(p - header);
    const std::size_t payload = block_bytes - kBlockHeaderBytes;
    std::memcpy(header, kBlockMagic, 4);
    put_u32_le(header + 8, static_cast<std::uint32_t>(payload));
    put_u32_le(header + 12, static_cast<std::uint32_t>(n));
    put_u32_le(header + 4, crc32(header + 8, 8 + payload));
    out.insert(out.end(), header, p);

    stats.bytes += block_bytes;
    stats.records += n;
    base += n;
  }
  return stats;
}

bool BlockDecoder::reset(const std::uint8_t* block, std::size_t available,
                         std::size_t* block_bytes, std::uint32_t* record_count) {
  failed_ = false;
  pattern_.clear();
  reps_left_ = 0;
  pattern_pos_ = 0;
  rep_offset_ = 0;
  prev_time_ = 0;
  pos_ = end_ = nullptr;
  remaining_ = 0;

  if (available < kBlockHeaderBytes) return false;
  if (std::memcmp(block, kBlockMagic, 4) != 0) return false;
  const std::uint32_t payload_len = get_u32_le(block + 8);
  if (payload_len > kMaxBlockPayloadBytes) return false;
  if (available < kBlockHeaderBytes + payload_len) return false;
  const std::uint32_t count = get_u32_le(block + 12);
  if (count > kBlockRecords || (count == 0) != (payload_len == 0)) return false;
  if (get_u32_le(block + 4) != crc32(block + 8, 8 + payload_len)) return false;

  pos_ = block + kBlockHeaderBytes;
  end_ = pos_ + payload_len;
  remaining_ = count;
  if (count != 0) {
    if (!read_dict(pids_) || !read_dict(tids_) || !read_dict(codes_)) {
      failed_ = true;
      return false;
    }
  }
  *block_bytes = kBlockHeaderBytes + payload_len;
  *record_count = count;
  return true;
}

bool BlockDecoder::read_dict(std::vector<std::int64_t>& dict) {
  dict.clear();
  std::uint64_t n = 0;
  if (!get_varint(&pos_, end_, &n)) return false;
  if (n > kBlockRecords) return false;  // more unique values than records
  if (n == 0) return false;            // a non-empty block uses every dict
  dict.reserve(static_cast<std::size_t>(n));
  std::uint64_t raw = 0;
  if (!get_varint(&pos_, end_, &raw)) return false;
  std::int64_t value = zigzag_decode(raw);
  dict.push_back(value);
  for (std::uint64_t i = 1; i < n; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(&pos_, end_, &delta)) return false;
    if (delta == 0) return false;  // dict values are strictly ascending
    value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) + delta);
    dict.push_back(value);
  }
  return true;
}

bool BlockDecoder::decode_plain(std::uint8_t tag, Event& out) {
  if (!valid_event_kind(tag)) return false;
  std::uint64_t raw = 0;
  if (!get_varint(&pos_, end_, &raw)) return false;
  prev_time_ += static_cast<std::uint64_t>(zigzag_decode(raw));
  out.time = static_cast<sim::TimeNs>(prev_time_);
  out.kind = static_cast<EventKind>(tag);
  std::uint64_t idx = 0;
  if (!get_varint(&pos_, end_, &idx) || idx >= pids_.size()) return false;
  out.pid = static_cast<std::int32_t>(pids_[static_cast<std::size_t>(idx)]);
  if (!get_varint(&pos_, end_, &idx) || idx >= tids_.size()) return false;
  out.tid = static_cast<std::int32_t>(tids_[static_cast<std::size_t>(idx)]);
  if (!get_varint(&pos_, end_, &idx) || idx >= codes_.size()) return false;
  out.code = static_cast<std::int32_t>(codes_[static_cast<std::size_t>(idx)]);
  if (!get_varint(&pos_, end_, &raw)) return false;
  out.aux = zigzag_decode(raw);
  return true;
}

bool BlockDecoder::next(Event& out) {
  if (remaining_ == 0) return false;

  if (reps_left_ == 0) {
    // Parse the next item from the payload.
    if (pos_ >= end_) {
      failed_ = true;  // record count promises more than the payload holds
      return false;
    }
    const std::uint8_t tag = *pos_++;
    if ((tag & kSuperTag) == 0) {
      if (!decode_plain(tag, out)) {
        failed_ = true;
        return false;
      }
      --remaining_;
      return true;
    }
    if (tag != kSuperTag) {  // reserved bits set alongside the super bit
      failed_ = true;
      return false;
    }
    std::uint64_t period = 0, reps = 0, raw = 0;
    if (!get_varint(&pos_, end_, &period) || period == 0 ||
        period > kMaxSuppressionPeriod || !get_varint(&pos_, end_, &reps) || reps < 2 ||
        !get_varint(&pos_, end_, &raw)) {
      failed_ = true;
      return false;
    }
    stride_ = static_cast<std::uint64_t>(zigzag_decode(raw));
    pattern_.clear();
    pattern_.reserve(static_cast<std::size_t>(period));
    for (std::uint64_t j = 0; j < period; ++j) {
      if (pos_ >= end_) {
        failed_ = true;
        return false;
      }
      const std::uint8_t inner = *pos_++;
      Event e;
      if ((inner & kSuperTag) != 0 || !decode_plain(inner, e)) {
        failed_ = true;  // supers never nest
        return false;
      }
      pattern_.push_back(e);
    }
    reps_left_ = reps;
    pattern_pos_ = 0;
    rep_offset_ = 0;
  }

  // Emit the next slot of the current repetition.
  const Event& slot = pattern_[pattern_pos_];
  out = slot;
  const std::uint64_t t = static_cast<std::uint64_t>(slot.time) + rep_offset_;
  out.time = static_cast<sim::TimeNs>(t);
  prev_time_ = t;  // the delta chain continues from the last expanded record
  --remaining_;
  if (++pattern_pos_ == pattern_.size()) {
    pattern_pos_ = 0;
    rep_offset_ += stride_;
    if (--reps_left_ == 0) pattern_.clear();
  }
  return true;
}

std::uint32_t BlockDecoder::drain(Event* out, std::uint32_t max) {
  std::uint32_t n = 0;
  while (n < max && next(out[n])) ++n;
  return n;
}

BlockSalvage salvage_v2_scan(const std::string& path) {
  BlockSalvage salvage;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return salvage;
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(file_size > 0 ? static_cast<std::size_t>(file_size) : 0);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    return salvage;
  }
  std::fclose(f);

  BlockDecoder decoder;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t block_bytes = 0;
    std::uint32_t count = 0;
    if (!decoder.reset(bytes.data() + offset, bytes.size() - offset, &block_bytes, &count)) {
      break;  // torn or corrupt: everything from here on is the lost tail
    }
    // Trust the CRC only as far as it decodes: a block that frames clean but
    // does not expand to its promised count is treated as torn too.
    Event e;
    std::uint32_t decoded = 0;
    while (decoder.next(e)) ++decoded;
    if (decoder.failed() || decoded != count) break;
    ++salvage.blocks;
    salvage.records += count;
    offset += block_bytes;
  }
  return salvage;
}

}  // namespace dyntrace::vt
