/**
 * @file
 * fdp_snap - inspect and verify fdpsnap-v1 machine snapshots.
 *
 *   fdp_snap info warm.fdpsnap
 *   fdp_snap verify warm.fdpsnap
 *
 * info prints the header (benchmark, geometry, warm-up length) and the
 * per-section byte layout. verify is the full integrity pass: framing
 * magic, CRC, version, and section-by-section byte accounting — the
 * same checks a restore performs, without building a machine.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "snap/snapshot_file.hh"

namespace
{

using namespace fdp;

const char kUsage[] =
    "usage: fdp_snap <command> PATH\n"
    "  info PATH      print the snapshot header and section layout\n"
    "  verify PATH    full integrity pass: magic, CRC, version,\n"
    "                 section byte accounting\n";

[[noreturn]] void
usage()
{
    std::fputs(kUsage, stderr);
    std::exit(1);
}

/**
 * Step over every section of the body without interpreting a payload,
 * through the codec's own frame decoder. Fatal on truncation, so both
 * commands double as structural checks.
 */
std::vector<SnapReader::Span>
walkSections(const SnapshotImage &image, const std::string &path)
{
    SnapReader r(image.body);
    std::vector<SnapReader::Span> sections;
    while (!r.atEnd())
        sections.push_back(r.skipAnySection());
    if (sections.size() != image.sectionCount)
        fatal("snapshot %s: header promises %u sections but the body "
              "holds %zu", path.c_str(), image.sectionCount,
              sections.size());
    return sections;
}

int
cmdInfo(const std::string &path)
{
    const SnapshotImage image = readSnapshotFile(path);
    const std::vector<SnapReader::Span> sections = walkSections(image, path);
    std::printf("snapshot:   %s\n", path.c_str());
    std::printf("format:     fdpsnap-v%u\n", kSnapVersion);
    std::printf("benchmark:  %s\n", image.benchmark.c_str());
    std::printf("geometry:   %s\n", image.geometry.c_str());
    std::printf("warmup:     %llu micro-ops\n",
                static_cast<unsigned long long>(image.warmupInsts));
    std::printf("body:       %zu bytes in %zu sections\n",
                image.body.size(), sections.size());
    for (const SnapReader::Span &s : sections)
        std::printf("  %-22s %u bytes\n", s.name.c_str(),
                    s.payloadBytes);
    return 0;
}

int
cmdVerify(const std::string &path)
{
    // readSnapshotFile already rejects bad magic, CRC, version, and
    // truncation; the section walk adds body-level byte accounting.
    const SnapshotImage image = readSnapshotFile(path);
    const std::vector<SnapReader::Span> sections = walkSections(image, path);
    std::printf("fdp_snap: %s ok (%s, %llu warm-up micro-ops, "
                "%zu sections, %zu body bytes)\n", path.c_str(),
                image.benchmark.c_str(),
                static_cast<unsigned long long>(image.warmupInsts),
                sections.size(), image.body.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    const std::vector<std::string> paths =
        parseArgs(argc, argv, 2, {}, kUsage);
    if (paths.size() != 1)
        usage();
    if (cmd == "info")
        return cmdInfo(paths[0]);
    if (cmd == "verify")
        return cmdVerify(paths[0]);
    usage();
}
