// The compact binary trace encoding: the file header, and the primitives
// the block codec (trace_codec_v2.hpp) is built from.
//
// A trace file is a 16-byte header, all little-endian:
//
//     [0..4)   magic "DTRC"
//     [4..6)   format version (u16; 2)
//     [6..8)   record size in bytes (u16; 0 = variable-length records)
//     [8..16)  record count (u64)
//
// followed by self-contained CRC-framed *blocks* of varint zig-zag delta
// records with per-block dictionaries and counted super-records
// (trace_codec_v2.hpp).  Spill runs carry no file header: a run is a bare
// block sequence (each block has its own magic + CRC), so a run torn
// mid-write keeps every complete, CRC-valid block before the tear (see
// TraceShard).  Version 1 -- fixed 32-byte records, 36-byte CRC spill
// frames -- is retired; its files are rejected like any unknown version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "vt/event.hpp"

namespace dyntrace::vt {

inline constexpr std::uint8_t kTraceMagic[4] = {'D', 'T', 'R', 'C'};

/// The on-disk encoding's version tag (the header's version field).
enum class TraceFormat : std::uint16_t {
  kV2 = 2,
};

/// The one version this reader/writer speaks.
inline constexpr std::uint16_t kTraceFormatVersion =
    static_cast<std::uint16_t>(TraceFormat::kV2);
inline constexpr std::size_t kTraceHeaderBytes = 16;

/// True if `kind` is a defined EventKind discriminant.
inline bool valid_event_kind(std::uint8_t kind) {
  return kind <= static_cast<std::uint8_t>(EventKind::kMarker);
}

/// Serialize the file header into `out` (kTraceHeaderBytes bytes).
void encode_trace_header(std::uint64_t record_count, std::uint8_t* out);

/// Validate magic/version/record size of a header and return its record
/// count; throws dyntrace::Error (mentioning `context`, typically the file
/// path) on mismatch or if fewer than kTraceHeaderBytes bytes are present.
/// Any version but kTraceFormatVersion -- the retired v1 included -- is
/// rejected with a message naming the file's version and the reader's, so
/// an old file fails loudly instead of being misparsed.
std::uint64_t decode_trace_header(const std::uint8_t* data, std::size_t size,
                                  const std::string& context);

// --- little-endian + varint primitives (used by the block codec) ----------

void put_u32_le(std::uint8_t* out, std::uint32_t v);
std::uint32_t get_u32_le(const std::uint8_t* in);

/// Longest LEB128 encoding of a u64 (10 bytes).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// LEB128-encode `v` into `out` (at least kMaxVarintBytes writable bytes);
/// returns the encoded length.
inline std::size_t put_varint(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80u) {
    out[n++] = static_cast<std::uint8_t>(v | 0x80u);
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Decode one LEB128 varint from [*p, end); advances *p past it.  Returns
/// false (without advancing past `end`) on truncation or overlong input.
/// Inline with a one-byte fast path: the block decoder calls this five
/// times per record, and most deltas and dictionary indices fit 7 bits.
inline bool get_varint(const std::uint8_t** p, const std::uint8_t* end, std::uint64_t* out) {
  const std::uint8_t* cur = *p;
  if (cur < end && *cur < 0x80u) {
    *out = *cur;
    *p = cur + 1;
    return true;
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (cur < end && shift < 70) {
    const std::uint8_t byte = *cur++;
    v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject overlong 10-byte encodings whose last byte carries bits a
      // u64 cannot hold (they would silently alias another value).
      if (shift == 63 && byte > 1) return false;
      *p = cur;
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated (ran off `end`) or longer than 10 bytes
}

/// Zig-zag fold: small negative and positive deltas both become small
/// unsigned varints.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace dyntrace::vt
