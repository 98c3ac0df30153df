/**
 * @file
 * Test-only byte patching of snapshot bytes. Restore death tests save
 * a sound component or machine, overwrite one field in place, and
 * check that the restore rejects the result with a clean fatal().
 */

#ifndef FDP_TESTS_SUPPORT_SNAP_PATCH_HH
#define FDP_TESTS_SUPPORT_SNAP_PATCH_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/snapshot.hh"

namespace fdp
{

/** Overwrite the @p width bytes at @p at with @p value, little-endian
 *  like every snapshot scalar. */
inline void
patchLe(std::vector<std::uint8_t> &bytes, std::size_t at, std::size_t width,
        std::uint64_t value)
{
    for (std::size_t i = 0; i < width; ++i)
        bytes.at(at + i) = static_cast<std::uint8_t>(value >> (8 * i));
}

/** @p s's section as saveState() writes it, with the payload byte at
 *  offset @p at replaced by @p value. */
inline std::vector<std::uint8_t>
savedWithByte(const Snapshottable &s, std::size_t at, std::uint8_t value)
{
    SnapWriter w;
    s.saveState(w);
    std::vector<std::uint8_t> bytes = w.bytes();
    // The frame ahead of the payload: u8 name length, name, u32 length.
    patchLe(bytes, 1 + std::strlen(s.snapName()) + 4 + at, 1, value);
    return bytes;
}

} // namespace fdp

#endif // FDP_TESTS_SUPPORT_SNAP_PATCH_HH
