#include "trace/trace_format.hh"

#include <array>

#include "sim/check.hh"

namespace fdp
{

namespace
{

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    return table;
}

} // namespace

void
Crc32::update(const std::uint8_t *data, std::size_t len)
{
    const auto &table = crcTable();
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    state_ = c;
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
putBytes(std::vector<std::uint8_t> &out, std::string_view bytes)
{
    out.insert(out.end(), bytes.begin(), bytes.end());
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
getVarint(const std::uint8_t *data, std::size_t len, std::size_t &pos,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (unsigned byte = 0; byte < 10; ++byte) {
        if (pos >= len)
            return false;
        const std::uint8_t b = data[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * byte);
        if ((b & 0x80) == 0) {
            out = v;
            return true;
        }
    }
    return false;  // > 10 continuation bytes cannot be a u64
}

void
encodeRecord(std::vector<std::uint8_t> &out, const MicroOp &op,
             Addr &prevAddr, Addr &prevPc)
{
    std::uint8_t tag = static_cast<std::uint8_t>(op.kind) & kTagKindMask;
    if (op.depPrevLoad)
        tag |= kTagDepBit;
    out.push_back(tag);
    if (op.kind == OpKind::Int) {
        // Int ops carry no payload; the generators produce them with
        // zero addr/pc, and the replay side reconstructs exactly that.
        FDP_ASSERT(op.addr == 0 && op.pc == 0,
                   "Int micro-op with nonzero addr/pc is not encodable");
        return;
    }
    putVarint(out, zigzagEncode(static_cast<std::int64_t>(op.addr) -
                                static_cast<std::int64_t>(prevAddr)));
    putVarint(out, zigzagEncode(static_cast<std::int64_t>(op.pc) -
                                static_cast<std::int64_t>(prevPc)));
    prevAddr = op.addr;
    prevPc = op.pc;
}

bool
decodeRecord(const std::uint8_t *data, std::size_t len, std::size_t &pos,
             MicroOp &op, Addr &prevAddr, Addr &prevPc)
{
    if (pos >= len)
        return false;
    const std::uint8_t tag = data[pos++];
    if ((tag & kTagReservedMask) != 0)
        return false;
    const std::uint8_t kind = tag & kTagKindMask;
    if (kind > static_cast<std::uint8_t>(OpKind::Store))
        return false;
    op.kind = static_cast<OpKind>(kind);
    op.depPrevLoad = (tag & kTagDepBit) != 0;
    op.addr = 0;
    op.pc = 0;
    if (op.kind == OpKind::Int)
        return true;
    std::uint64_t addrDelta = 0;
    std::uint64_t pcDelta = 0;
    if (!getVarint(data, len, pos, addrDelta) ||
        !getVarint(data, len, pos, pcDelta))
        return false;
    op.addr = static_cast<Addr>(static_cast<std::int64_t>(prevAddr) +
                                zigzagDecode(addrDelta));
    op.pc = static_cast<Addr>(static_cast<std::int64_t>(prevPc) +
                              zigzagDecode(pcDelta));
    prevAddr = op.addr;
    prevPc = op.pc;
    return true;
}

} // namespace fdp
