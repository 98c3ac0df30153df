/**
 * @file
 * The `fdpsnap-v1` binary snapshot container (DESIGN.md Section 16).
 *
 * Layout (all fixed-width scalars little-endian):
 *
 *   magic        8 bytes   "FDPSNAPS"
 *   version      u32       kSnapVersion
 *   nameLen      u16       benchmark name length
 *   name         nameLen   benchmark the machine was warmed on
 *   geomLen      u16       geometry string length
 *   geometry     geomLen   machineGeometry() of the saving machine
 *   warmupInsts  u64       instructions retired before the snapshot
 *   sectionCount u32       sections in the body
 *   body         variable  SnapWriter sections (sim/snapshot.hh)
 *   crc          u32       CRC-32 (IEEE) of everything above
 *   endMagic     8 bytes   "FDPSNEND"
 *
 * Every way a file can be wrong — unreadable, truncated, foreign magic,
 * version skew, a flipped bit anywhere under the CRC — is a clean
 * one-line fatal() naming the file, mirroring the fdptrace-v1 reader;
 * the result store's warm-image path reads the same checks as a miss
 * instead. Files are written through a temp file plus rename(), so no
 * reader ever sees a partial image under its final name.
 */

#ifndef FDP_SNAP_SNAPSHOT_FILE_HH
#define FDP_SNAP_SNAPSHOT_FILE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fdp
{

/// @name Container constants
/// @{
inline constexpr std::size_t kSnapMagicLen = 8;
inline constexpr char kSnapMagic[kSnapMagicLen + 1] = "FDPSNAPS";
inline constexpr char kSnapEndMagic[kSnapMagicLen + 1] = "FDPSNEND";
// v2: synthetic workloads grew the delta-walker/phase state and the
// memory system's bus-utilization window; v1 images no longer restore.
inline constexpr std::uint32_t kSnapVersion = 2;
/// @}

/** One decoded snapshot: identity header + opaque section body. */
struct SnapshotImage
{
    std::string benchmark;
    std::string geometry;
    std::uint64_t warmupInsts = 0;
    std::uint32_t sectionCount = 0;
    std::vector<std::uint8_t> body;
};

/**
 * Write @p bytes to @p path through a temp file beside it plus an
 * atomic rename(), so a killed writer never leaves a partial file under
 * @p path. False with a diagnostic on failure. Shared by snapshot
 * images and result-store entries.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes,
                     std::string *error);

/** Write @p image to @p path (writeFileAtomic); fatal on any I/O
 *  failure. */
void writeSnapshotFile(const std::string &path, const SnapshotImage &image);

/** Read and fully validate the snapshot at @p path into @p out. False
 *  with the reason in @p error on any I/O failure or corruption (see
 *  file comment). */
bool readSnapshotFile(const std::string &path, SnapshotImage *out,
                      std::string *error);

/** Same, with any failure a fatal() naming the file. */
SnapshotImage readSnapshotFile(const std::string &path);

} // namespace fdp

#endif // FDP_SNAP_SNAPSHOT_FILE_HH
