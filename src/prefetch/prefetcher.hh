/**
 * @file
 * Abstract interface every hardware data prefetcher implements.
 *
 * The memory system calls observe() on every demand L2 access; the
 * prefetcher appends candidate prefetch block addresses to the output
 * vector. FDP (or a static configuration) drives setAggressiveness().
 */

#ifndef FDP_PREFETCH_PREFETCHER_HH
#define FDP_PREFETCH_PREFETCHER_HH

#include <vector>

#include "prefetch/aggressiveness.hh"
#include "sim/check.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

/** One demand access as seen by the L2-side prefetcher. */
struct PrefetchObservation
{
    /** Full byte address of the demand access (for stride detection). */
    Addr addr;
    /** Block address of the demand access. */
    BlockAddr block;
    /** Program counter of the memory instruction (for PC-based schemes). */
    Addr pc;
    /** True when the access missed in the L2. */
    bool miss;
    /**
     * DRAM data-bus utilization over the memory system's recent
     * measurement window, in [0, 1]. Bandwidth-adaptive prefetchers
     * (DSPatch) bias toward accuracy when the bus is saturated; all
     * other prefetchers ignore it.
     */
    double busUtil = 0.0;
};

/**
 * Base class of every prefetcher in the zoo. It owns the one
 * aggressiveness level FDP steers (paper Table 2 picks a Table 1 row),
 * its range check and its audit, so a prefetcher adds only its own
 * state and its (distance, degree) table.
 */
class Prefetcher : public Auditable, public Snapshottable
{
  public:
    ~Prefetcher() override = default;

    /** "No limit" budget for observe(). */
    static constexpr std::size_t kUnlimited = ~std::size_t{0};

    /**
     * Observe one demand L2 access and append at most @p budget prefetch
     * candidates (cache-block addresses) to @p out. @p budget is the
     * free space in the Prefetch Request Queue: a hardware prefetcher
     * only generates requests the queue can accept, and retries from the
     * same point on the next trigger rather than losing coverage.
     * The memory system further filters candidates against L2 contents
     * and MSHRs.
     */
    void
    observe(const PrefetchObservation &obs, std::vector<BlockAddr> &out,
            std::size_t budget = kUnlimited)
    {
        doObserve(obs, out, budget);
    }

    /**
     * Select the aggressiveness level (1..5, paper Table 1); any other
     * level panics naming the prefetcher. Constructors call it on their
     * initial level, so a bad one never builds.
     */
    virtual void setAggressiveness(unsigned level);

    /** Current aggressiveness level (1..5). */
    virtual unsigned aggressiveness() const { return level_; }

    /** Short identifier, e.g. "stream". */
    virtual const char *name() const = 0;

    /** Drop all learned state (streams, history, strides). */
    virtual void reset() = 0;

    /** Invariant: the level is in range. Every override runs it first. */
    void audit() const override;

    /** Audit failures report the prefetcher under its short name. */
    const char *auditName() const override { return name(); }

    /** Snapshot sections are likewise named after the prefetcher. */
    const char *snapName() const override { return name(); }

  protected:
    /** Implementation of observe(); see the public wrapper. */
    virtual void doObserve(const PrefetchObservation &obs,
                           std::vector<BlockAddr> &out,
                           std::size_t budget) = 0;

    /** The aggressiveness level; each snapFields lists it first. */
    unsigned level_ = kInitialAggrLevel;

  private:
    friend struct AuditCorrupter;
};

} // namespace fdp

#endif // FDP_PREFETCH_PREFETCHER_HH
