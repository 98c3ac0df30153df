#include "snap/snapshot_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "sim/logging.hh"
#include "trace/trace_format.hh"

namespace fdp
{

namespace
{

/** crc (4) + end magic (8). */
constexpr std::size_t kSnapFooterBytes = 4 + kSnapMagicLen;

void
putString16(std::vector<std::uint8_t> &out, const std::string &s,
            const char *what)
{
    if (s.size() > std::numeric_limits<std::uint16_t>::max())
        fatal("snapshot: %s string is %zu bytes (max %u)", what, s.size(),
              std::numeric_limits<std::uint16_t>::max());
    putU16(out, static_cast<std::uint16_t>(s.size()));
    putBytes(out, s);
}

} // namespace

bool
readFileBytes(const std::string &path, std::string *out, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *error = std::string("cannot open: ") + std::strerror(errno);
        return false;
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, got);
    const bool readError = std::ferror(f) != 0;
    const int readErrno = errno;
    std::fclose(f);
    if (readError) {
        *error = std::string("read failed: ") + std::strerror(readErrno);
        return false;
    }
    *out = std::move(bytes);
    return true;
}

bool
writeFileAtomic(const std::string &path, std::string_view bytes,
                std::string *error)
{
    // The temp name embeds the final name, so two concurrent writers of
    // the *same* file (legal only when their content is identical, by
    // the determinism contract) race harmlessly.
    const std::size_t slash = path.rfind('/') + 1;  // 0 when no '/'
    const std::string tmp =
        path.substr(0, slash) + "." + path.substr(slash) + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            *error = std::string(std::strerror(errno)) + " (" + tmp + ")";
            return false;
        }
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            *error = std::string(std::strerror(errno)) + " (" + tmp + ")";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        *error = std::string(std::strerror(errno)) + " (renaming " + tmp +
                 " to " + path + ")";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

void
writeSnapshotFile(const std::string &path, const SnapshotImage &image)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(64 + image.benchmark.size() + image.geometry.size() +
                  image.body.size() + kSnapFooterBytes);
    putBytes(bytes, {kSnapMagic, kSnapMagicLen});
    putU32(bytes, kSnapVersion);
    putString16(bytes, image.benchmark, "benchmark");
    putString16(bytes, image.geometry, "geometry");
    putU64(bytes, image.warmupInsts);
    putU32(bytes, image.sectionCount);
    bytes.insert(bytes.end(), image.body.begin(), image.body.end());
    putU32(bytes, crc32(bytes.data(), bytes.size()));
    putBytes(bytes, {kSnapEndMagic, kSnapMagicLen});

    std::string error;
    if (!writeFileAtomic(path,
                         std::string_view(
                             reinterpret_cast<const char *>(bytes.data()),
                             bytes.size()),
                         &error))
        fatal("snapshot %s: cannot write: %s", path.c_str(), error.c_str());
}

bool
readSnapshotFile(const std::string &path, SnapshotImage *out,
                 std::string *error)
{
    const auto fail = [error](std::string why) {
        *error = std::move(why);
        return false;
    };
    std::string file;
    if (!readFileBytes(path, &file, error))
        return false;
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(file.data());
    const std::size_t size = file.size();

    // Smallest well-formed file: fixed header fields with empty strings
    // and an empty body, plus the footer.
    const std::size_t min_size =
        kSnapMagicLen + 4 + 2 + 2 + 8 + 4 + kSnapFooterBytes;
    if (size < min_size)
        return fail(detail::formatMessage("truncated (%zu bytes)", size));
    if (std::memcmp(bytes, kSnapMagic, kSnapMagicLen) != 0)
        return fail("not an fdpsnap file (bad magic)");
    if (std::memcmp(bytes + size - kSnapMagicLen, kSnapEndMagic,
                    kSnapMagicLen) != 0)
        return fail("truncated (missing end marker)");

    const std::size_t crc_pos = size - kSnapFooterBytes;
    const std::uint32_t stored_crc = getU32(bytes + crc_pos);
    const std::uint32_t actual_crc = crc32(bytes, crc_pos);
    if (stored_crc != actual_crc)
        return fail(detail::formatMessage(
            "CRC mismatch (stored %08x, computed %08x)", stored_crc,
            actual_crc));

    std::size_t pos = kSnapMagicLen;
    const std::uint32_t version = getU32(bytes + pos);
    pos += 4;
    if (version != kSnapVersion)
        return fail(detail::formatMessage(
            "format version %u, this build reads %u", version,
            kSnapVersion));

    SnapshotImage image;
    for (std::string *s : {&image.benchmark, &image.geometry}) {
        if (pos + 2 > crc_pos)
            return fail("truncated header");
        const std::uint16_t len = getU16(bytes + pos);
        pos += 2;
        if (pos + len > crc_pos)
            return fail("truncated header");
        s->assign(file, pos, len);
        pos += len;
    }
    if (pos + 8 + 4 > crc_pos)
        return fail("truncated header");
    image.warmupInsts = getU64(bytes + pos);
    pos += 8;
    image.sectionCount = getU32(bytes + pos);
    pos += 4;
    image.body.assign(bytes + pos, bytes + crc_pos);
    *out = std::move(image);
    return true;
}

SnapshotImage
readSnapshotFile(const std::string &path)
{
    SnapshotImage image;
    std::string error;
    if (!readSnapshotFile(path, &image, &error))
        fatal("snapshot %s: %s", path.c_str(), error.c_str());
    return image;
}

} // namespace fdp
