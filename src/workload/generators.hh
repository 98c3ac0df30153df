/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * One generator class covers every SPEC stand-in by mixing four memory
 * behaviors, selected per micro-op with configured probabilities:
 *
 *  - stream: round-robin walks over long sequential regions (trains the
 *    stream prefetcher; long streams -> high accuracy, short -> low);
 *  - hot:    uniform reuse of a fixed working set (the data aggressive
 *    prefetching can pollute);
 *  - chase:  dependent (pointer-chasing) loads, either scattered through
 *    a permuted cycle (irregular, unprefetchable) or sequential
 *    (prefetchable but demand-rate-bound -> late prefetches);
 *  - random: uniform cold misses in a huge region (untrainable noise).
 *
 * The remainder of the op mix is single-cycle Int work. Everything is
 * driven by a seeded Rng, so traces replay exactly.
 */

#ifndef FDP_WORKLOAD_GENERATORS_HH
#define FDP_WORKLOAD_GENERATORS_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/check.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"
#include "workload/workload.hh"

namespace fdp
{

/** Knobs of the synthetic generator (see file comment). */
struct SyntheticParams
{
    std::string name = "synthetic";

    /// @name Op mix: probabilities of each memory behavior per micro-op.
    /// The remainder (1 - sum) is Int work.
    /// @{
    double pStream = 0.0;
    double pHot = 0.0;
    double pChase = 0.0;
    double pRandom = 0.0;
    /**
     * delta: walks 4 KB pages with the repeating block-delta pattern
     * {+1, +3, +2} (new random page on overflow), touching each block
     * with eight sequential 8-byte accesses so the L1 absorbs 7/8 of
     * them — the band's L2-block rate is pDelta/8 per op, the same
     * shape as the stream band's. Irregular enough that a monotonic
     * stream tracker keeps losing its window, but exactly the history
     * a delta-correlating prefetcher (VLDP) locks onto.
     */
    double pDelta = 0.0;
    /// @}

    /**
     * When nonzero, swap the stream and delta bands' probabilities
     * every phaseOps micro-ops. Builds mixed-phase traces where the
     * best prefetcher changes at phase boundaries — the case runtime
     * management (DESIGN.md §17) exists for. 0 disables phasing.
     */
    std::uint64_t phaseOps = 0;

    /** Percentage of (non-chase) memory ops that are stores. */
    unsigned storePercent = 20;

    /// @name Stream behavior
    /// @{
    unsigned numStreams = 4;
    unsigned streamLenBlocks = 1024;   ///< blocks before a stream respawns
    unsigned accessStrideBytes = 8;    ///< per-access stride within streams
    double descendingFrac = 0.0;       ///< fraction of descending streams
    /// @}

    /// @name Hot-set behavior
    /// @{
    unsigned hotBlocks = 1024;
    /**
     * Access pattern over the hot set. Uniform models scattered reuse
     * (very pollution-resistant: hot blocks are constantly re-promoted).
     * Sweep walks a fixed pseudo-random permutation cyclically, giving
     * every block the same LRU reuse distance - the loopy array-sweep
     * reuse of art/ammp that prefetcher pollution destroys.
     */
    enum class HotPattern : std::uint8_t { Uniform, Sweep };
    HotPattern hotPattern = HotPattern::Uniform;
    /// @}

    /// @name Chase behavior
    /// @{
    unsigned chaseBlocks = 1 << 15;    ///< power of two
    bool chaseSequential = false;      ///< sequential dependent walk
    /// @}

    std::uint64_t seed = 1;
};

/** The configurable synthetic micro-op stream. */
class SyntheticWorkload : public Workload, public Snapshottable
{
  public:
    explicit SyntheticWorkload(const SyntheticParams &params);

    MicroOp next() override;
    void reset() override;
    const char *name() const override { return params_.name.c_str(); }

    const SyntheticParams &params() const { return params_; }

    /**
     * Serialize the generator cursor: the Rng state, the per-stream
     * walkers, and the chase/hot cursors. The sweep permutation is a
     * pure function of the parameters, so it is rebuilt, not stored.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "workload"; }

  private:
    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    struct Stream
    {
        Addr cur = 0;
        std::uint64_t remainingBytes = 0;
        int dir = 1;
        Addr pc = 0;
    };

    MicroOp streamOp();
    MicroOp hotOp();
    MicroOp chaseOp();
    MicroOp randomOp();
    MicroOp deltaOp();
    void respawnStream(Stream &s);

    SyntheticParams params_;
    Rng rng_;
    std::vector<Stream> streams_;
    unsigned nextStream_ = 0;
    std::uint64_t chaseCur_ = 0;
    Addr chaseSeqAddr_ = 0;
    /** Fixed visit order for HotPattern::Sweep. */
    std::vector<std::uint32_t> hotOrder_;
    std::size_t hotCursor_ = 0;
    /// @name Delta-walker cursor (see pDelta)
    /// @{
    std::uint64_t deltaPage_ = 0;   ///< page index within the region
    unsigned deltaOffset_ = 1;      ///< block offset within the page
    unsigned deltaPhase_ = 0;       ///< position in the {+1,+3,+2} cycle
    unsigned deltaWord_ = 0;        ///< 8-byte word within the block
    /// @}
    /** Ops emitted since reset; drives the phaseOps band swap. */
    std::uint64_t opCount_ = 0;
};

/**
 * Alternates between two sub-workloads every @p phaseOps micro-ops,
 * exercising FDP's interval-based adaptation (examples + tests).
 */
class PhasedWorkload : public Workload
{
  public:
    PhasedWorkload(std::unique_ptr<Workload> a, std::unique_ptr<Workload> b,
                   std::uint64_t phaseOps, std::string name);

    MicroOp next() override;
    void reset() override;
    const char *name() const override { return name_.c_str(); }

    /** Which phase (0 or 1) the next op comes from. */
    unsigned currentPhase() const;

  private:
    std::unique_ptr<Workload> a_;
    std::unique_ptr<Workload> b_;
    std::uint64_t phaseOps_;
    std::uint64_t count_ = 0;
    std::string name_;
};

/**
 * Offsets every memory address of an owned sub-workload by a fixed
 * base, modeling one program of a multi-programmed co-run: each core's
 * stream lives in a disjoint slice of the physical address space, so
 * co-runners contend for cache capacity and bus bandwidth but never
 * share data. PCs are left untouched (prefetcher history is per core,
 * so PC aliasing across cores cannot occur anyway), and Int ops carry
 * no address to rebase. The rebase is a pure constant offset: run
 * alone, a rebased workload behaves bit-identically to its inner one
 * as long as the base is block- and DRAM-row-aligned.
 *
 * Forwards audits when the inner workload is Auditable (e.g. a
 * TraceWorkload frontend).
 */
class RebasedWorkload : public Workload, public Auditable
{
  public:
    RebasedWorkload(std::unique_ptr<Workload> inner, Addr base);

    MicroOp next() override;
    void reset() override { inner_->reset(); }
    const char *name() const override { return inner_->name(); }
    Addr base() const { return base_; }

    void audit() const override;
    const char *auditName() const override { return "rebased_workload"; }

  private:
    std::unique_ptr<Workload> inner_;
    Addr base_;
};

/// @name Address-space layout of the synthetic generators
/// Regions are disjoint so behaviors never alias.
/// @{
inline constexpr Addr kHotRegionBase = 0x1'0000'0000ull;
inline constexpr Addr kChaseRegionBase = 0x2'0000'0000ull;
inline constexpr Addr kDeltaRegionBase = 0x8'0000'0000ull;
inline constexpr Addr kDeltaRegionSize = 0x10'0000'0000ull;  // 64 GB
inline constexpr Addr kDeltaPageBytes = 4096;
inline constexpr Addr kStreamRegionBase = 0x40'0000'0000ull;
inline constexpr Addr kStreamRegionSize = 0x100'0000'0000ull;  // 1 TB
inline constexpr Addr kRandomRegionBase = 0x200'0000'0000ull;
inline constexpr Addr kRandomRegionSize = 0x100'0000'0000ull;  // 1 TB
/// @}

} // namespace fdp

#endif // FDP_WORKLOAD_GENERATORS_HH
