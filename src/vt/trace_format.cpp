#include "vt/trace_format.hpp"

#include <bit>
#include <cstring>

#include "support/common.hpp"

namespace dyntrace::vt {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32_le(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

void encode_trace_header(std::uint64_t record_count, std::uint8_t* out) {
  out[0] = kTraceMagic[0];
  out[1] = kTraceMagic[1];
  out[2] = kTraceMagic[2];
  out[3] = kTraceMagic[3];
  put_u16(out + 4, kTraceFormatVersion);
  put_u16(out + 6, 0);  // records are variable-length (delta blocks)
  put_u64(out + 8, record_count);
}

std::uint64_t decode_trace_header(const std::uint8_t* data, std::size_t size,
                                  const std::string& context) {
  DT_EXPECT(size >= kTraceHeaderBytes, context, ": truncated binary trace header (", size,
            " of ", kTraceHeaderBytes, " bytes)");
  DT_EXPECT(data[0] == kTraceMagic[0] && data[1] == kTraceMagic[1] &&
                data[2] == kTraceMagic[2] && data[3] == kTraceMagic[3],
            context, ": not a binary trace file (bad magic)");
  const std::uint16_t version = get_u16(data + 4);
  DT_EXPECT(version == kTraceFormatVersion, context, ": trace format version ", version,
            " is not supported by this reader (it speaks v", kTraceFormatVersion,
            " only; rewrite the file with a matching dynprof build)");
  const std::uint16_t record_bytes = get_u16(data + 6);
  DT_EXPECT(record_bytes == 0, context, ": unexpected record size ", record_bytes,
            " (v2 records are variable-length; expected 0)");
  return get_u64(data + 8);
}

namespace {

/// Slicing-by-8 tables: entries[0] is the bytewise table of the reflected
/// IEEE polynomial; entries[k][b] advances entries[k-1][b] by one zero byte,
/// so eight table lookups fold eight input bytes at once.
struct Crc32Tables {
  std::uint32_t entries[8][256];
  constexpr Crc32Tables() : entries{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
  }
};

constexpr Crc32Tables kCrc32{};

/// Eight bytes as a little-endian u64, in one (possibly unaligned) load on
/// little-endian hosts.
std::uint64_t load_u64_le(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return get_u64(p);
  }
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrc32.entries;
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint64_t word = load_u64_le(data);
    const std::uint32_t lo = static_cast<std::uint32_t>(word) ^ c;
    const std::uint32_t hi = static_cast<std::uint32_t>(word >> 32);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace dyntrace::vt
