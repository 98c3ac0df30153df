/**
 * @file
 * fdpsnap-v1 container behavior: images round-trip exactly, and --
 * the robustness half of the subsystem -- death tests proving every
 * corruption class (truncated file, missing end marker, bad magic,
 * flipped payload byte, flipped CRC byte, future format version) is a
 * clean one-line fatal() naming the file, never UB or silent garbage.
 * The checked reader the result store uses reports the same reasons
 * without exiting, and writes replace a file whole.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "snap/snapshot_file.hh"
#include "trace/trace_format.hh"

namespace fdp
{
namespace
{

std::string
tempSnapPath(const std::string &tag)
{
    return testing::TempDir() + "fdpsnap_test_" + tag + ".fdpsnap";
}

SnapshotImage
sampleImage()
{
    SnapshotImage image;
    image.benchmark = "swim";
    image.geometry = "l1{65536,4,lat=2} l2{1048576,16,lat=10}";
    image.warmupInsts = 123456;
    image.sectionCount = 2;
    // Two well-formed (if meaningless) sections: u8 len + name + u32
    // payload len + payload.
    for (const char *name : {"a", "b"}) {
        image.body.push_back(1);
        image.body.push_back(static_cast<std::uint8_t>(name[0]));
        putU32(image.body, 4);
        putU32(image.body, 0xC0FFEE);
    }
    return image;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
}

TEST(SnapshotFile, RoundTripIsExact)
{
    const std::string path = tempSnapPath("roundtrip");
    const SnapshotImage image = sampleImage();
    writeSnapshotFile(path, image);

    const SnapshotImage back = readSnapshotFile(path);
    EXPECT_EQ(back.benchmark, image.benchmark);
    EXPECT_EQ(back.geometry, image.geometry);
    EXPECT_EQ(back.warmupInsts, image.warmupInsts);
    EXPECT_EQ(back.sectionCount, image.sectionCount);
    EXPECT_EQ(back.body, image.body);
    std::remove(path.c_str());
}

TEST(SnapshotFile, CheckedReadReportsTheFatalReasonWithoutExiting)
{
    const std::string path = tempSnapPath("checked");
    writeSnapshotFile(path, sampleImage());
    SnapshotImage back;
    std::string error;
    ASSERT_TRUE(readSnapshotFile(path, &back, &error)) << error;
    EXPECT_EQ(back.body, sampleImage().body);

    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes.resize(bytes.size() - 3);
    writeFileBytes(path, bytes);
    EXPECT_FALSE(readSnapshotFile(path, &back, &error));
    EXPECT_EQ(error, "truncated (missing end marker)");

    bytes = readFileBytes(path);
    bytes.resize(10);
    writeFileBytes(path, bytes);
    EXPECT_FALSE(readSnapshotFile(path, &back, &error));
    EXPECT_EQ(error, "truncated (10 bytes)");

    std::remove(path.c_str());
    EXPECT_FALSE(readSnapshotFile(path, &back, &error));
    EXPECT_EQ(error.rfind("cannot open: ", 0), 0u) << error;
}

TEST(SnapshotFile, WriteReplacesAnExistingFileAndLeavesNoTemp)
{
    const std::string path = tempSnapPath("replace");
    const std::string tmp = testing::TempDir() + ".fdpsnap_test_replace" +
                            ".fdpsnap.tmp";
    writeFileBytes(path, std::vector<std::uint8_t>(100000, 0xAB));
    writeSnapshotFile(path, sampleImage());
    const SnapshotImage back = readSnapshotFile(path);
    EXPECT_EQ(back.body, sampleImage().body);
    struct stat st = {};
    EXPECT_NE(::stat(tmp.c_str(), &st), 0) << tmp;
    std::remove(path.c_str());
}

TEST(SnapshotFile, AtomicWriteFailureIsReportedNotFatal)
{
    std::string error;
    EXPECT_FALSE(writeFileAtomic(testing::TempDir() +
                                     "no_such_dir/file.bin",
                                 "bytes", &error));
    EXPECT_NE(error.find("no_such_dir/.file.bin.tmp"), std::string::npos)
        << error;
}

class SnapshotCorruptionDeath : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::FLAGS_gtest_death_test_style = "threadsafe";
        // Unique file per test: ctest runs these concurrently, and a
        // shared path would let one test corrupt another's fixture.
        path_ = tempSnapPath(
            testing::UnitTest::GetInstance()->current_test_info()->name());
        writeSnapshotFile(path_, sampleImage());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(SnapshotCorruptionDeath, TruncatedFileIsFatal)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes.resize(10);
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "truncated");
}

TEST_F(SnapshotCorruptionDeath, MissingEndMarkerIsFatal)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes.resize(bytes.size() - 3);  // still above min size
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "end marker");
}

TEST_F(SnapshotCorruptionDeath, BadMagicIsFatal)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes[0] ^= 0xFF;
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "bad magic");
}

TEST_F(SnapshotCorruptionDeath, FlippedPayloadBitIsFatal)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes[bytes.size() / 2] ^= 0x04;  // one bit, mid-body
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "CRC mismatch");
}

TEST_F(SnapshotCorruptionDeath, FlippedCrcByteIsFatal)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes[bytes.size() - 12] ^= 0xFF;  // stored CRC, before end magic
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "CRC mismatch");
}

TEST_F(SnapshotCorruptionDeath, FutureVersionIsFatal)
{
    // A version bump alone would trip the CRC first; a future writer
    // would stamp a matching CRC, so recompute it the way one would.
    std::vector<std::uint8_t> bytes = readFileBytes(path_);
    bytes[kSnapMagicLen] = 99;
    const std::size_t crcPos = bytes.size() - 12;
    const std::uint32_t crc = crc32(bytes.data(), crcPos);
    for (int i = 0; i < 4; ++i)
        bytes[crcPos + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeFileBytes(path_, bytes);
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "version 99");
}

TEST_F(SnapshotCorruptionDeath, MissingFileIsFatal)
{
    std::remove(path_.c_str());
    EXPECT_EXIT(readSnapshotFile(path_), testing::ExitedWithCode(1),
                "cannot open");
}

} // namespace
} // namespace fdp
