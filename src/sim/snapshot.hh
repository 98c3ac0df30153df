/**
 * @file
 * Component-state serialization for fdpsnap-v1 snapshots.
 *
 * SnapWriter/SnapReader are the byte codec: a snapshot body is a
 * sequence of named sections, each `u8 nameLen + name + u32 payloadLen
 * + payload`, with every scalar little-endian. The codec knows nothing
 * about files or checksums — the framed container (magic, version,
 * CRC) lives in src/snap/snapshot_file.hh, which wraps these bodies.
 *
 * Components with state that must survive a warm-fork implement
 * Snapshottable: saveState() writes exactly one section, loadState()
 * consumes exactly that section, and the pair is bit-faithful — a
 * restored component must be indistinguishable from the original, so
 * save -> restore -> run is bit-identical to an uninterrupted run.
 * Both run one field list over SnapSave/SnapLoad (below), so the two
 * directions cannot drift apart. Reader-side mismatches (wrong section
 * name, short payload, leftover bytes, a value out of range) are clean
 * fatal() diagnostics, never UB or silent garbage.
 */

#ifndef FDP_SIM_SNAPSHOT_HH
#define FDP_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fdp
{

/** Appends named, length-framed sections to a growing byte buffer. */
// fdp-analyze: suppress(audit-coverage, the codec's buffer is the
// serialization in flight, not simulation state; it is validated
// structurally by SnapReader on every read)
class SnapWriter
{
  public:
    /** Open a section; every put below lands in its payload. */
    void beginSection(const std::string &name);

    /** Close the open section, patching its payload length. */
    void endSection();

    void putU8(std::uint8_t v);
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    /** Two's-complement through u64, so the round trip is exact. */
    void putI64(std::int64_t v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** IEEE-754 bits through u64, so the round trip is exact. */
    void putDouble(double v);
    /** u16 length + raw bytes (names, labels; not bulk data). */
    void putString(const std::string &s);
    /** u32 length + raw bytes. For nested snapshot bodies (e.g. a
     *  composite component embedding its children's sections as one
     *  opaque blob inside its own section). */
    void putBytes(const std::vector<std::uint8_t> &blob);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::uint32_t sectionCount() const { return sections_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t lenPatchPos_ = 0;
    bool inSection_ = false;
    std::uint32_t sections_ = 0;
};

/**
 * Sequential reader over one snapshot body. Construction borrows the
 * bytes; the buffer must outlive the reader. Every structural
 * violation — unexpected section name, truncated payload, a section
 * left partially consumed — is a clean fatal().
 */
class SnapReader
{
  public:
    SnapReader(const std::uint8_t *data, std::size_t size);
    explicit SnapReader(const std::vector<std::uint8_t> &bytes);

    /** Enter the next section; fatal unless it is named @p expected. */
    void openSection(const std::string &expected);

    /** Leave the section; fatal unless its payload is fully consumed. */
    void closeSection();

    /** Skip the next section wholesale; fatal unless named @p expected.
     *  Used by fork-restores that rebuild a component from its config
     *  instead of the saved state. */
    void skipSection(const std::string &expected);

    /** Name and payload size of one section. */
    struct Span
    {
        std::string name;
        std::uint32_t payloadBytes = 0;
    };

    /** Step over the next section whatever its name (fdp_snap's layout
     *  listing). */
    Span skipAnySection();

    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64();
    bool getBool() { return getU8() != 0; }
    double getDouble();
    std::string getString();
    std::vector<std::uint8_t> getBytes();

    /** True once every byte of the body has been consumed. */
    bool atEnd() const { return pos_ == size_; }

  private:
    /** Name of the section at pos_, advancing past its frame header
     *  and setting sectionEnd_. */
    std::string enterFrame();
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
    std::string sectionName_;
};

/**
 * A component whose complete simulated state can be serialized into a
 * snapshot section and restored bit-faithfully. Implementations pair
 * with Auditable: anything audited is state the simulation depends on,
 * so it must either snapshot or carry a reasoned analyzer suppression
 * (rule snapshot-coverage).
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    /** Serialize complete state as one section named snapName(). */
    virtual void saveState(SnapWriter &w) const = 0;

    /** Restore state from the section saveState() wrote. The component
     *  must already be constructed with identical configuration. */
    virtual void loadState(SnapReader &r) = 0;

    /** Stable section name (also used in mismatch diagnostics). */
    virtual const char *snapName() const = 0;
};

/**
 * The two directions of one field list. A Snapshottable class lists its
 * section once, as a static member template
 *
 *     template <typename Self, typename Io>
 *     static void snapFields(Self &self, Io &io);
 *
 * which saveState() runs over a SnapSave (Self is const) and loadState()
 * over a SnapLoad. The list opens the section with io.begin(), names
 * every field once with its width on the wire, closes the section with
 * io.end(), and may then name child components whose sections follow
 * (io.child()). Field kinds:
 *
 *  - u8/u32/u64/i64/f64/str: a plain field at that width;
 *  - u8/u32/u64 with (lo, hi, what): a bounded field (level, enum
 *    state, cursor, offset) that a restore requires to lie in [lo, hi];
 *  - fixedU8/fixedU32/fixedStr: a value the configuration fixes (table
 *    size, name, geometry count), saved for the restore to match;
 *  - check: a condition over restored fields (ignored on save).
 *
 * A restore also requires every value to fit its field. A failed
 * restore check is a clean fatal() naming the section. Saving checks
 * nothing: a live component keeps its invariants (see audit()).
 * The few fields stored in another form (packed filter bits, Rng
 * words, a cache line's owner, a trace cursor) pass through a local and
 * test Io::kLoading.
 */
/** A bound's type: the field alone deduces T, so bounds of another
 *  integer type convert to it. */
template <typename T>
using SnapLike = std::type_identity_t<T>;

/** SnapWriter side of a field list. */
class SnapSave
{
  public:
    static constexpr bool kLoading = false;

    explicit SnapSave(SnapWriter &w) : w_(w) {}

    void begin(const char *section) { w_.beginSection(section); }
    void end() { w_.endSection(); }
    void child(const Snapshottable &c) { c.saveState(w_); }

    template <typename T>
    void u8(const T &v) { w_.putU8(static_cast<std::uint8_t>(v)); }
    template <typename T>
    void u32(const T &v) { w_.putU32(static_cast<std::uint32_t>(v)); }
    template <typename T>
    void u64(const T &v) { w_.putU64(static_cast<std::uint64_t>(v)); }
    template <typename T>
    void i64(const T &v) { w_.putI64(static_cast<std::int64_t>(v)); }
    void f64(double v) { w_.putDouble(v); }
    void str(const std::string &s) { w_.putString(s); }

    template <typename T>
    void u8(const T &v, SnapLike<T>, SnapLike<T>, const char *) { u8(v); }
    template <typename T>
    void u32(const T &v, SnapLike<T>, SnapLike<T>, const char *) { u32(v); }
    template <typename T>
    void u64(const T &v, SnapLike<T>, SnapLike<T>, const char *) { u64(v); }

    void fixedU8(std::uint64_t v, const char *) { u8(v); }
    void fixedU32(std::uint64_t v, const char *) { u32(v); }
    void fixedStr(const std::string &s, const char *) { str(s); }

    template <typename... Args>
    void check(bool, const char *, Args &&...) {}

    /** Each of @p parts' sections, nested as one opaque blob (a
     *  composite keeps exactly one section of its own). */
    template <typename Parts>
    void
    nested(const Parts &parts)
    {
        SnapWriter inner;
        for (const auto &p : parts)
            p->saveState(inner);
        w_.putBytes(inner.bytes());
    }

  private:
    SnapWriter &w_;
};

/** SnapReader side of a field list: every check is a clean fatal(). */
class SnapLoad
{
  public:
    static constexpr bool kLoading = true;

    explicit SnapLoad(SnapReader &r) : r_(r) {}

    void
    begin(const char *section)
    {
        r_.openSection(section);
        section_ = section;
    }
    void end() { r_.closeSection(); }
    void child(Snapshottable &c) { c.loadState(r_); }

    template <typename T>
    void u8(T &v) { take(v, r_.getU8()); }
    template <typename T>
    void u32(T &v) { take(v, r_.getU32()); }
    template <typename T>
    void u64(T &v) { take(v, r_.getU64()); }
    template <typename T>
    void i64(T &v) { take(v, r_.getI64()); }
    void f64(double &v) { v = r_.getDouble(); }
    void str(std::string &s) { s = r_.getString(); }

    template <typename T>
    void
    u8(T &v, SnapLike<T> lo, SnapLike<T> hi, const char *what)
    {
        take(v, inRange(r_.getU8(), lo, hi, what));
    }
    template <typename T>
    void
    u32(T &v, SnapLike<T> lo, SnapLike<T> hi, const char *what)
    {
        take(v, inRange(r_.getU32(), lo, hi, what));
    }
    template <typename T>
    void
    u64(T &v, SnapLike<T> lo, SnapLike<T> hi, const char *what)
    {
        take(v, inRange(r_.getU64(), lo, hi, what));
    }

    void
    fixedU8(std::uint64_t v, const char *what)
    {
        same(v, r_.getU8(), what);
    }
    void
    fixedU32(std::uint64_t v, const char *what)
    {
        same(v, r_.getU32(), what);
    }
    void fixedStr(const std::string &s, const char *what);

    template <typename... Args>
    void
    check(bool ok, const char *fmt, Args &&...args)
    {
        if (!ok)
            fail(detail::formatMessage(fmt, std::forward<Args>(args)...));
    }

    template <typename Parts>
    void
    nested(Parts &parts)
    {
        const std::vector<std::uint8_t> blob = r_.getBytes();
        SnapReader inner(blob);
        for (auto &p : parts)
            p->loadState(inner);
        check(inner.atEnd(), "nested sections leave trailing bytes");
    }

  private:
    /** Store wire value @p raw in field @p v; fatal unless it fits (a
     *  bool byte other than 0/1, an i64 past an int field). */
    template <typename T, typename W>
    void
    take(T &v, W raw) const
    {
        v = static_cast<T>(raw);
        if (static_cast<W>(v) != raw)
            fail(detail::formatMessage(
                "value 0x%llx does not fit its field",
                static_cast<unsigned long long>(raw)));
    }
    template <typename B>
    std::uint64_t
    inRange(std::uint64_t v, B lo, B hi, const char *what) const
    {
        const auto l = static_cast<unsigned long long>(lo);
        const auto h = static_cast<unsigned long long>(hi);
        if (v < l || v > h)
            fail(detail::formatMessage("%s %llu out of range [%llu, %llu]",
                                       what,
                                       static_cast<unsigned long long>(v),
                                       l, h));
        return v;
    }
    void same(std::uint64_t have, std::uint64_t got,
              const char *what) const;
    [[noreturn]] void fail(const std::string &message) const;

    SnapReader &r_;
    const char *section_ = "";
};

} // namespace fdp

#endif // FDP_SIM_SNAPSHOT_HH
