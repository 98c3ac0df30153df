#include "sim/snapshot.hh"

#include <bit>
#include <limits>

#include "sim/check.hh"

namespace fdp
{

// ---------------------------------------------------------------------------
// SnapWriter.
// ---------------------------------------------------------------------------

void
SnapWriter::beginSection(const std::string &name)
{
    FDP_ASSERT(!inSection_, "snapshot writer: nested section `%s'",
               name.c_str());
    FDP_ASSERT(!name.empty() && name.size() <= 255,
               "snapshot writer: bad section name length %zu", name.size());
    bytes_.push_back(static_cast<std::uint8_t>(name.size()));
    bytes_.insert(bytes_.end(), name.begin(), name.end());
    lenPatchPos_ = bytes_.size();
    // Placeholder payload length, patched by endSection().
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(0);
    inSection_ = true;
    ++sections_;
}

void
SnapWriter::endSection()
{
    FDP_ASSERT(inSection_, "snapshot writer: endSection with none open");
    const std::size_t payload = bytes_.size() - lenPatchPos_ - 4;
    FDP_ASSERT(payload <= std::numeric_limits<std::uint32_t>::max());
    for (int i = 0; i < 4; ++i)
        bytes_[lenPatchPos_ + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((payload >> (i * 8)) & 0xFF);
    inSection_ = false;
}

void
SnapWriter::putU8(std::uint8_t v)
{
    FDP_ASSERT(inSection_, "snapshot writer: put outside a section");
    bytes_.push_back(v);
}

void
SnapWriter::putU16(std::uint16_t v)
{
    putU8(static_cast<std::uint8_t>(v & 0xFF));
    putU8(static_cast<std::uint8_t>(v >> 8));
}

void
SnapWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        putU8(static_cast<std::uint8_t>((v >> (i * 8)) & 0xFF));
}

void
SnapWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        putU8(static_cast<std::uint8_t>((v >> (i * 8)) & 0xFF));
}

void
SnapWriter::putI64(std::int64_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
SnapWriter::putDouble(double v)
{
    putU64(std::bit_cast<std::uint64_t>(v));
}

void
SnapWriter::putString(const std::string &s)
{
    FDP_ASSERT(s.size() <= std::numeric_limits<std::uint16_t>::max(),
               "snapshot writer: string of %zu bytes", s.size());
    putU16(static_cast<std::uint16_t>(s.size()));
    for (char c : s)
        putU8(static_cast<std::uint8_t>(c));
}

void
SnapWriter::putBytes(const std::vector<std::uint8_t> &blob)
{
    FDP_ASSERT(inSection_, "snapshot writer: put outside a section");
    FDP_ASSERT(blob.size() <= std::numeric_limits<std::uint32_t>::max(),
               "snapshot writer: blob of %zu bytes", blob.size());
    putU32(static_cast<std::uint32_t>(blob.size()));
    bytes_.insert(bytes_.end(), blob.begin(), blob.end());
}

// ---------------------------------------------------------------------------
// SnapReader.
// ---------------------------------------------------------------------------

SnapReader::SnapReader(const std::uint8_t *data, std::size_t size)
    : data_(data), size_(size)
{
}

SnapReader::SnapReader(const std::vector<std::uint8_t> &bytes)
    : SnapReader(bytes.data(), bytes.size())
{
}

void
SnapReader::need(std::size_t n) const
{
    const std::size_t limit = inSection_ ? sectionEnd_ : size_;
    if (pos_ + n > limit) {
        if (inSection_)
            fatal("snapshot: section `%s' payload truncated (need %zu "
                  "bytes, %zu left)",
                  sectionName_.c_str(), n, limit - pos_);
        fatal("snapshot: body truncated (need %zu bytes, %zu left)", n,
              limit - pos_);
    }
}

std::string
SnapReader::enterFrame()
{
    FDP_ASSERT(!inSection_, "snapshot reader: section `%s' still open",
               sectionName_.c_str());
    need(1);
    const std::size_t nameLen = data_[pos_++];
    need(nameLen + 4);
    std::string name(reinterpret_cast<const char *>(data_ + pos_), nameLen);
    pos_ += nameLen;
    std::uint32_t payload = 0;
    for (int i = 0; i < 4; ++i)
        payload |= static_cast<std::uint32_t>(data_[pos_++]) << (i * 8);
    if (pos_ + payload > size_)
        fatal("snapshot: section `%s' runs past the end of the body",
              name.c_str());
    sectionEnd_ = pos_ + payload;
    return name;
}

void
SnapReader::openSection(const std::string &expected)
{
    const std::string name = enterFrame();
    if (name != expected)
        fatal("snapshot: expected section `%s', found `%s'",
              expected.c_str(), name.c_str());
    sectionName_ = name;
    inSection_ = true;
}

void
SnapReader::closeSection()
{
    FDP_ASSERT(inSection_, "snapshot reader: closeSection with none open");
    if (pos_ != sectionEnd_)
        fatal("snapshot: section `%s' has %zu unconsumed payload bytes",
              sectionName_.c_str(), sectionEnd_ - pos_);
    inSection_ = false;
}

void
SnapReader::skipSection(const std::string &expected)
{
    const std::string name = skipAnySection().name;
    if (name != expected)
        fatal("snapshot: expected section `%s', found `%s'",
              expected.c_str(), name.c_str());
}

SnapReader::Span
SnapReader::skipAnySection()
{
    Span s;
    s.name = enterFrame();
    s.payloadBytes = static_cast<std::uint32_t>(sectionEnd_ - pos_);
    pos_ = sectionEnd_;
    return s;
}

std::uint8_t
SnapReader::getU8()
{
    FDP_ASSERT(inSection_, "snapshot reader: get outside a section");
    need(1);
    return data_[pos_++];
}

std::uint16_t
SnapReader::getU16()
{
    const std::uint16_t lo = getU8();
    const std::uint16_t hi = getU8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t
SnapReader::getU32()
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(getU8()) << (i * 8);
    return v;
}

std::uint64_t
SnapReader::getU64()
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(getU8()) << (i * 8);
    return v;
}

std::int64_t
SnapReader::getI64()
{
    return static_cast<std::int64_t>(getU64());
}

double
SnapReader::getDouble()
{
    return std::bit_cast<double>(getU64());
}

std::string
SnapReader::getString()
{
    const std::uint16_t len = getU16();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

std::vector<std::uint8_t>
SnapReader::getBytes()
{
    const std::uint32_t len = getU32();
    need(len);
    std::vector<std::uint8_t> blob(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return blob;
}

// ---------------------------------------------------------------------------
// SnapLoad.
// ---------------------------------------------------------------------------

void
SnapLoad::fixedStr(const std::string &s, const char *what)
{
    const std::string got = r_.getString();
    if (got != s)
        fail(detail::formatMessage("%s `%s', snapshot has `%s'", what,
                                   s.c_str(), got.c_str()));
}

void
SnapLoad::same(std::uint64_t have, std::uint64_t got, const char *what) const
{
    if (got != have)
        fail(detail::formatMessage("%s %llu, snapshot has %llu", what,
                                   static_cast<unsigned long long>(have),
                                   static_cast<unsigned long long>(got)));
}

void
SnapLoad::fail(const std::string &message) const
{
    fatal("snapshot: %s %s", section_, message.c_str());
}

} // namespace fdp
