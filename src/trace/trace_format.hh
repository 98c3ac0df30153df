/**
 * @file
 * The `fdptrace-v1` binary micro-op trace format (DESIGN.md Section 12).
 *
 * Layout (all fixed-width scalars little-endian):
 *
 *   magic     8 bytes   "FDPTRACE"
 *   version   u32       1
 *   nameLen   u16       1..255
 *   name      nameLen   benchmark name (reports use it verbatim)
 *   seed      u64       generator seed the stream was produced from
 *   opCount   u64       number of records (patched in by the writer's
 *                       finish(), so recording streams in bounded memory)
 *   records   variable  delta/varint-encoded micro-ops (below)
 *   crc       u32       CRC-32 (IEEE) of the records region
 *   opCount   u64       repeated, cross-checked against the header
 *   endMagic  8 bytes   "FDPTREND"
 *
 * Each record is one tag byte -- bits [1:0] OpKind, bit 2 depPrevLoad,
 * bits [7:3] reserved zero -- followed, for loads and stores only, by
 * two zigzag varints: the address delta and the pc delta against the
 * previous memory op. Int ops carry no payload (their addr/pc are zero
 * by construction). Streams encode as tiny constant deltas, so typical
 * traces land near two bytes per micro-op.
 */

#ifndef FDP_TRACE_TRACE_FORMAT_HH
#define FDP_TRACE_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"
#include "workload/workload.hh"

namespace fdp
{

/// @name Format constants
/// @{
inline constexpr std::size_t kTraceMagicLen = 8;
inline constexpr char kTraceMagic[kTraceMagicLen + 1] = "FDPTRACE";
inline constexpr char kTraceEndMagic[kTraceMagicLen + 1] = "FDPTREND";
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceMaxNameLen = 255;
/** crc (4) + repeated opCount (8) + end magic (8). */
inline constexpr std::size_t kTraceFooterBytes = 4 + 8 + kTraceMagicLen;
/** Widest possible record: tag + two 10-byte varints. */
inline constexpr std::size_t kTraceMaxRecordBytes = 1 + 2 * 10;
/// @}

/// @name Record tag bits
/// @{
inline constexpr std::uint8_t kTagKindMask = 0x03;
inline constexpr std::uint8_t kTagDepBit = 0x04;
inline constexpr std::uint8_t kTagReservedMask = 0xf8;
/// @}

/** Everything the fixed part of a trace file's header carries. */
struct TraceHeader
{
    std::uint32_t version = kTraceVersion;
    std::string benchmark;
    std::uint64_t seed = 0;
    std::uint64_t opCount = 0;

    /** On-disk size of the header encoding this benchmark name. */
    std::size_t
    headerBytes() const
    {
        return kTraceMagicLen + 4 + 2 + benchmark.size() + 8 + 8;
    }
};

/** Incremental CRC-32 (IEEE 802.3, poly 0xEDB88320). */
class Crc32
{
  public:
    void update(const std::uint8_t *data, std::size_t len);
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }
    void reset() { state_ = 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** One-shot CRC-32 of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/// @name Little-endian scalar append helpers
/// @{
void putU16(std::vector<std::uint8_t> &out, std::uint16_t v);
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);
/** Append @p bytes as they are (a magic, a name). */
void putBytes(std::vector<std::uint8_t> &out, std::string_view bytes);
/// @}

/// @name Little-endian scalar read helpers (caller checks bounds)
/// @{
std::uint16_t getU16(const std::uint8_t *p);
std::uint32_t getU32(const std::uint8_t *p);
std::uint64_t getU64(const std::uint8_t *p);
/// @}

/** Map a signed delta onto an unsigned varint-friendly value. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v as a LEB128 varint (1..10 bytes). */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Decode one varint from data[pos..len); advances @p pos past it.
 * Returns false (leaving @p pos unspecified) on truncation or a varint
 * longer than 10 bytes.
 */
bool getVarint(const std::uint8_t *data, std::size_t len, std::size_t &pos,
               std::uint64_t &out);

/**
 * Append one encoded micro-op record, updating the caller's previous
 * memory-op address/pc delta state.
 */
void encodeRecord(std::vector<std::uint8_t> &out, const MicroOp &op,
                  Addr &prevAddr, Addr &prevPc);

/**
 * Decode one record from data[pos..len); advances @p pos and the delta
 * state exactly as encodeRecord did. Returns false on a malformed
 * record (reserved tag bits, kind 3, truncated varint).
 */
bool decodeRecord(const std::uint8_t *data, std::size_t len,
                  std::size_t &pos, MicroOp &op, Addr &prevAddr,
                  Addr &prevPc);

} // namespace fdp

#endif // FDP_TRACE_TRACE_FORMAT_HH
