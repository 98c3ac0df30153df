/**
 * @file
 * Runtime prefetcher management: the adaptive layer above FDP.
 *
 * FDP (the paper) throttles ONE prefetcher's aggressiveness from
 * accuracy/lateness/pollution feedback. This subsystem goes one level
 * up and chooses WHICH prefetcher runs, POWER7-style (Jimenez et al.,
 * "Adaptive and application dependent runtime guided hardware
 * prefetcher reconfiguration on the IBM POWER7", PAPERS.md):
 * ManagedPrefetcher owns a zoo of candidate prefetchers behind the
 * ordinary Prefetcher interface, and an exploration/exploitation FSM
 * driven at FDP sampling-interval boundaries scores each candidate
 * for `exploreIntervals` intervals (pollution-penalized interval IPC),
 * then exploits the winner — with hysteresis so an incumbent is only
 * dethroned by a clearly better challenger — for `exploitIntervals`
 * intervals before re-exploring.
 *
 * The FSM is a pure function of its intervalTick() sequence: no RNG,
 * no wall clock, so sweeps stay bit-identical across --jobs and the
 * whole manager (zoo included) snapshots for warm-fork.
 *
 * Layering: this subsystem sees only the abstract Prefetcher
 * interface. Candidate construction from RunConfig lives in
 * src/harness/ (makeRunPrefetcher); interval wiring lives in the FDP
 * controller's end-of-interval hook.
 */

#ifndef FDP_MANAGE_PREFETCHER_MANAGER_HH
#define FDP_MANAGE_PREFETCHER_MANAGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Exploration/exploitation schedule knobs. */
struct ManagerParams
{
    /** Intervals each candidate is scored for per exploration round.
     *  Sampling intervals are long (half the L2's blocks in evictions),
     *  so one interval per candidate keeps exploration cheap: with the
     *  default five-way zoo an exploration round costs five intervals
     *  against 96 spent exploiting the winner. */
    unsigned exploreIntervals = 1;
    /** Intervals the winner runs before the next exploration round. */
    unsigned exploitIntervals = 96;
    /** A challenger must beat the incumbent's round score by this many
     *  percent to dethrone it. */
    double hysteresisPct = 3.0;
    /** An exploit-phase interval scoring this many percent below the
     *  incumbent's best exploit interval this phase triggers an
     *  immediate exploration round: a program phase change dethrones
     *  the incumbent within an interval or two instead of after
     *  exploitIntervals. The first exploit interval only primes the
     *  baseline (it covers the incumbent's retraining after
     *  reactivation). 0 disables the early trigger (purely periodic
     *  re-exploration). */
    double reexploreDropPct = 25.0;
    /** Initial aggressiveness level (1..5) for every candidate. */
    unsigned initialLevel = kInitialAggrLevel;
};

/** One sampling interval's feedback, delivered at the boundary. */
struct ManagerSignal
{
    /** FDP feedback metrics for the interval that just closed. */
    double accuracy = 0.0;
    double lateness = 0.0;
    double pollution = 0.0;
    /** Cumulative retired micro-ops (monotone within a run). */
    std::uint64_t retired = 0;
    /** Cumulative simulated cycles (the event-queue horizon). */
    Cycle cycle = 0;
};

/**
 * A composite prefetcher that runs exactly one zoo candidate at a time
 * and reconfigures at sampling-interval boundaries. To the memory
 * system and the FDP controller it is an ordinary Prefetcher: observe()
 * delegates to the active candidate and setAggressiveness() follows it
 * across switches, so FDP throttling keeps working unchanged on
 * whichever candidate is live.
 */
class ManagedPrefetcher : public Prefetcher
{
  public:
    /** Reconfiguration FSM phases. */
    enum class Phase : std::uint8_t
    {
        Explore,
        Exploit,
    };

    /** Takes ownership of the zoo; fatal on an empty zoo or a null or
     *  duplicate-named candidate. Exploration starts at candidate 0. */
    ManagedPrefetcher(const ManagerParams &params,
                      std::vector<std::unique_ptr<Prefetcher>> zoo);

    /** The base's setter, plus the forward to the active candidate. */
    void setAggressiveness(unsigned level) override;
    const char *name() const override { return "manager"; }
    void reset() override;

    /**
     * Consume one closed sampling interval. The first tick after
     * construction/reset only primes the IPC baseline; every later
     * tick scores the active candidate and advances the FSM.
     */
    void intervalTick(const ManagerSignal &signal);

    Phase phase() const { return phase_; }
    std::size_t zooSize() const { return zoo_.size(); }
    std::size_t activeIndex() const { return active_; }
    const Prefetcher &candidate(std::size_t i) const { return *zoo_[i]; }
    const char *activeName() const { return zoo_[active_]->name(); }
    /** Exploration rounds candidate @p i has won (convergence metric). */
    std::uint64_t roundsWon(std::size_t i) const { return wins_[i]; }
    /** Completed intervalTick() calls since construction/reset. */
    std::uint64_t ticks() const { return ticks_; }

    /**
     * Invariants, after the base's level check: FSM indices inside
     * the zoo; Explore phase runs the candidate it is scoring; phase
     * progress below its bound; the active candidate holds the
     * published aggressiveness level; score/win vectors sized to the
     * zoo; every candidate's own audit passes.
     */
    void audit() const override;

    /**
     * One "manager" section: FSM control state, the zoo's candidate
     * names (verified on load), and a nested snapshot body holding
     * each candidate's own section as an opaque blob.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    /** Make candidate @p idx the live one at the published level. */
    void activate(std::size_t idx);
    /** Close an exploration round: crown a winner, enter Exploit. */
    void finishRound();
    /** Zero the scores and begin exploring from candidate 0. */
    void startExploreRound();

    ManagerParams params_;
    std::vector<std::unique_ptr<Prefetcher>> zoo_;
    Phase phase_ = Phase::Explore;
    /** Candidate currently observing the access stream. */
    std::size_t active_ = 0;
    /** Candidate the current exploration round is scoring. */
    std::size_t exploreIdx_ = 0;
    /** Winner of the last completed round (valid once haveIncumbent_). */
    std::size_t incumbent_ = 0;
    bool haveIncumbent_ = false;
    /** Best exploit-interval score the incumbent has shown this phase
     *  (primed by the first exploit interval); the baseline the
     *  reexploreDropPct early trigger compares against. */
    double exploitBase_ = 0.0;
    /** True once the IPC baseline has been primed by a first tick. */
    bool primed_ = false;
    unsigned intervalInPhase_ = 0;
    /** Accumulated score per candidate, current round. */
    std::vector<double> score_;
    /** Exploration rounds won per candidate (lifetime). */
    std::vector<std::uint64_t> wins_;
    std::uint64_t lastRetired_ = 0;
    Cycle lastCycle_ = 0;
    std::uint64_t ticks_ = 0;
};

} // namespace fdp

#endif // FDP_MANAGE_PREFETCHER_MANAGER_HH
