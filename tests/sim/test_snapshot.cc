/**
 * @file
 * SnapWriter/SnapReader codec behavior: every scalar round-trips
 * exactly (including IEEE-754 and two's-complement edge values), and
 * every structural misuse — wrong section name, leftover payload,
 * reading past a section, a body with trailing garbage — is a clean
 * fatal() diagnostic, never UB or silent garbage. The SnapSave/SnapLoad
 * walker writes one field list's bytes and rejects a fixed value that
 * differs, a bounded value out of range, and a value too wide for its
 * field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/snapshot.hh"

namespace fdp
{
namespace
{

TEST(SnapCodec, ScalarsRoundTripExactly)
{
    SnapWriter w;
    w.beginSection("scalars");
    w.putU8(0xAB);
    w.putU16(0xBEEF);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFULL);
    w.putI64(-42);
    w.putI64(std::numeric_limits<std::int64_t>::min());
    w.putBool(true);
    w.putBool(false);
    w.putDouble(3.14159265358979);
    w.putDouble(-0.0);
    w.putString("fdpsnap");
    w.putString("");
    w.endSection();
    EXPECT_EQ(w.sectionCount(), 1u);

    SnapReader r(w.bytes());
    r.openSection("scalars");
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU16(), 0xBEEF);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getI64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getDouble(), 3.14159265358979);
    const double negZero = r.getDouble();
    EXPECT_EQ(negZero, 0.0);
    EXPECT_TRUE(std::signbit(negZero));
    EXPECT_EQ(r.getString(), "fdpsnap");
    EXPECT_EQ(r.getString(), "");
    r.closeSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapCodec, MultipleSectionsReadInOrder)
{
    SnapWriter w;
    w.beginSection("a");
    w.putU32(1);
    w.endSection();
    w.beginSection("b");
    w.putU32(2);
    w.endSection();
    w.beginSection("c");
    w.putU32(3);
    w.endSection();
    EXPECT_EQ(w.sectionCount(), 3u);

    SnapReader r(w.bytes());
    r.openSection("a");
    EXPECT_EQ(r.getU32(), 1u);
    r.closeSection();
    r.skipSection("b");  // fork-style skip consumes the whole payload
    r.openSection("c");
    EXPECT_EQ(r.getU32(), 3u);
    r.closeSection();
    EXPECT_TRUE(r.atEnd());
}

class SnapCodecDeath : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::FLAGS_gtest_death_test_style = "threadsafe";
        w_.beginSection("core");
        w_.putU64(7);
        w_.endSection();
    }

    SnapWriter w_;
};

TEST_F(SnapCodecDeath, WrongSectionNameIsFatal)
{
    EXPECT_EXIT(
        {
            SnapReader r(w_.bytes());
            r.openSection("mem");
        },
        testing::ExitedWithCode(1), "core");
}

TEST_F(SnapCodecDeath, WrongSkipNameIsFatal)
{
    EXPECT_EXIT(
        {
            SnapReader r(w_.bytes());
            r.skipSection("mem");
        },
        testing::ExitedWithCode(1), "core");
}

TEST_F(SnapCodecDeath, LeftoverPayloadOnCloseIsFatal)
{
    EXPECT_EXIT(
        {
            SnapReader r(w_.bytes());
            r.openSection("core");
            r.closeSection();  // 8 unread payload bytes
        },
        testing::ExitedWithCode(1), "");
}

TEST_F(SnapCodecDeath, ReadPastSectionEndIsFatal)
{
    EXPECT_EXIT(
        {
            SnapReader r(w_.bytes());
            r.openSection("core");
            r.getU64();
            r.getU8();  // payload exhausted
        },
        testing::ExitedWithCode(1), "");
}

TEST_F(SnapCodecDeath, TruncatedBodyIsFatal)
{
    std::vector<std::uint8_t> bytes = w_.bytes();
    bytes.resize(bytes.size() - 3);
    EXPECT_EXIT(
        {
            SnapReader r(bytes);
            r.openSection("core");
        },
        testing::ExitedWithCode(1), "");
}

/** One field of each walker kind, listed once for both directions. */
struct Walked
{
    bool flag = false;
    int dir = 1;
    unsigned cursor = 0;

    template <typename Self, typename Io>
    static void
    snapFields(Self &self, Io &io)
    {
        io.begin("walked");
        io.fixedU32(4, "table holds");
        io.u8(self.flag);
        io.i64(self.dir);
        io.u32(self.cursor, 0, 3, "cursor");
        io.end();
    }
};

/** A "walked" section with the given raw field values. */
std::vector<std::uint8_t>
walkedSection(std::uint32_t size, std::uint8_t flag, std::int64_t dir,
              std::uint32_t cursor)
{
    SnapWriter w;
    w.beginSection("walked");
    w.putU32(size);
    w.putU8(flag);
    w.putI64(dir);
    w.putU32(cursor);
    w.endSection();
    return w.bytes();
}

Walked
loadWalked(const std::vector<std::uint8_t> &bytes)
{
    Walked out;
    SnapReader r(bytes);
    SnapLoad io(r);
    Walked::snapFields(out, io);
    EXPECT_TRUE(r.atEnd());
    return out;
}

TEST(SnapWalker, OneFieldListSavesAndLoadsTheSameBytes)
{
    const Walked in{true, -1, 3};
    SnapWriter w;
    SnapSave io(w);
    Walked::snapFields(in, io);
    EXPECT_EQ(w.bytes(), walkedSection(4, 1, -1, 3));

    const Walked out = loadWalked(w.bytes());
    EXPECT_TRUE(out.flag);
    EXPECT_EQ(out.dir, -1);
    EXPECT_EQ(out.cursor, 3u);
}

TEST(SnapWalkerDeath, RestoreChecksAreCleanFatals)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(loadWalked(walkedSection(5, 1, 1, 0)),
                testing::ExitedWithCode(1),
                "snapshot: walked table holds 4, snapshot has 5");
    EXPECT_EXIT(loadWalked(walkedSection(4, 1, 1, 4)),
                testing::ExitedWithCode(1),
                "snapshot: walked cursor 4 out of range \\[0, 3\\]");
    EXPECT_EXIT(loadWalked(walkedSection(4, 2, 1, 0)),
                testing::ExitedWithCode(1),
                "snapshot: walked value 0x2 does not fit its field");
    EXPECT_EXIT(loadWalked(walkedSection(4, 1, std::int64_t{1} << 32, 0)),
                testing::ExitedWithCode(1),
                "value 0x100000000 does not fit its field");
}

} // namespace
} // namespace fdp
