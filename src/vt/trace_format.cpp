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

TraceFormat trace_format_from_string(const std::string& name) {
  if (name == "v1" || name == "1") return TraceFormat::kV1;
  if (name == "v2" || name == "2") return TraceFormat::kV2;
  fail("unknown trace format '", name, "' (expected v1 or v2)");
}

std::string to_string(TraceFormat format) {
  return format == TraceFormat::kV1 ? "v1" : "v2";
}

void encode_trace_header(TraceFormat format, std::uint64_t record_count, std::uint8_t* out) {
  out[0] = kTraceMagic[0];
  out[1] = kTraceMagic[1];
  out[2] = kTraceMagic[2];
  out[3] = kTraceMagic[3];
  put_u16(out + 4, static_cast<std::uint16_t>(format));
  // v1 advertises its fixed record size; v2 records are variable-length
  // (delta blocks), marked by record size 0.
  put_u16(out + 6, format == TraceFormat::kV1 ? static_cast<std::uint16_t>(kTraceRecordBytes)
                                              : 0);
  put_u64(out + 8, record_count);
}

TraceHeader decode_trace_header(const std::uint8_t* data, std::size_t size,
                                const std::string& context) {
  DT_EXPECT(size >= kTraceHeaderBytes, context, ": truncated binary trace header (", size,
            " of ", kTraceHeaderBytes, " bytes)");
  DT_EXPECT(data[0] == kTraceMagic[0] && data[1] == kTraceMagic[1] &&
                data[2] == kTraceMagic[2] && data[3] == kTraceMagic[3],
            context, ": not a binary trace file (bad magic)");
  const std::uint16_t version = get_u16(data + 4);
  DT_EXPECT(version == kTraceFormatV1 || version == kTraceFormatV2, context,
            ": trace format version ", version,
            " is not supported by this reader (it speaks v", kTraceFormatV1, " and v",
            kTraceFormatV2, "; rewrite the file with a matching dynprof build)");
  const std::uint16_t record_bytes = get_u16(data + 6);
  if (version == kTraceFormatV1) {
    DT_EXPECT(record_bytes == kTraceRecordBytes, context, ": unexpected v1 record size ",
              record_bytes, " (expected ", kTraceRecordBytes, ")");
  } else {
    DT_EXPECT(record_bytes == 0, context, ": unexpected v2 record size ", record_bytes,
              " (v2 records are variable-length; expected 0)");
  }
  TraceHeader header;
  header.version = version;
  header.record_count = get_u64(data + 8);
  return header;
}

void encode_event(const Event& event, std::uint8_t* out) {
  put_u64(out, static_cast<std::uint64_t>(event.time));
  put_u64(out + 8, static_cast<std::uint64_t>(event.aux));
  put_u32_le(out + 16, static_cast<std::uint32_t>(event.pid));
  put_u32_le(out + 20, static_cast<std::uint32_t>(event.tid));
  put_u32_le(out + 24, static_cast<std::uint32_t>(event.code));
  out[28] = static_cast<std::uint8_t>(event.kind);
  out[29] = out[30] = out[31] = 0;
}

Event decode_event(const std::uint8_t* in, const std::string& context) {
  DT_EXPECT(valid_event_kind(in[28]), context, ": unknown event kind ",
            static_cast<int>(in[28]));
  Event e;
  e.time = static_cast<sim::TimeNs>(get_u64(in));
  e.aux = static_cast<std::int64_t>(get_u64(in + 8));
  e.pid = static_cast<std::int32_t>(get_u32_le(in + 16));
  e.tid = static_cast<std::int32_t>(get_u32_le(in + 20));
  e.code = static_cast<std::int32_t>(get_u32_le(in + 24));
  e.kind = static_cast<EventKind>(in[28]);
  return e;
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

void encode_spill_frame(const Event& event, std::uint8_t* out) {
  encode_event(event, out);
  put_u32_le(out + kTraceRecordBytes, crc32(out, kTraceRecordBytes));
}

bool decode_spill_frame(const std::uint8_t* in, Event& out) {
  if (get_u32_le(in + kTraceRecordBytes) != crc32(in, kTraceRecordBytes)) return false;
  if (!valid_event_kind(in[28])) return false;
  out.time = static_cast<sim::TimeNs>(get_u64(in));
  out.aux = static_cast<std::int64_t>(get_u64(in + 8));
  out.pid = static_cast<std::int32_t>(get_u32_le(in + 16));
  out.tid = static_cast<std::int32_t>(get_u32_le(in + 20));
  out.code = static_cast<std::int32_t>(get_u32_le(in + 24));
  out.kind = static_cast<EventKind>(in[28]);
  return true;
}

}  // namespace dyntrace::vt
