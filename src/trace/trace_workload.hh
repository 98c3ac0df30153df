/**
 * @file
 * The replay frontend and its recording counterpart.
 *
 * TraceWorkload satisfies the Workload contract (next/reset/name) from
 * an fdptrace-v1 file, so the core, harness, and sweep pool run
 * recorded streams with no semantic changes; RecordingWorkload tees a
 * live workload's micro-ops into a TraceWriter, so a recorded run's
 * trace holds exactly the ops the simulated core consumed and replays
 * bit-identically (the core calls next() exactly numInsts times).
 */

#ifndef FDP_TRACE_TRACE_WORKLOAD_HH
#define FDP_TRACE_TRACE_WORKLOAD_HH

#include <string>

#include "sim/check.hh"
#include "sim/snapshot.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workload/workload.hh"

namespace fdp
{

/** Replays a recorded trace as a Workload; fatal if the run outruns
 *  the recorded op count. */
class TraceWorkload : public Workload, public Auditable, public Snapshottable
{
  public:
    explicit TraceWorkload(const std::string &path);

    MicroOp next() override;
    void reset() override { reader_.reset(); }
    const char *name() const override
    {
        return reader_.header().benchmark.c_str();
    }

    const TraceReader &reader() const { return reader_; }

    void audit() const override;
    const char *auditName() const override { return "trace-workload"; }

    /**
     * The replay cursor is just the delivered-op count: loadState()
     * rewinds the reader and re-skips that many records (re-verifying
     * the CRC prefix as a side effect).
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "workload"; }

  private:
    TraceReader reader_;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);
};

/** Pass-through Workload that records every produced micro-op. */
class RecordingWorkload : public Workload
{
  public:
    RecordingWorkload(Workload &inner, TraceWriter &writer)
        : inner_(inner), writer_(writer)
    {
    }

    MicroOp next() override;

    /**
     * Resetting the source mid-recording would desynchronize the trace
     * from the run that produced it, so it is fatal once any op has
     * been recorded.
     */
    void reset() override;

    const char *name() const override { return inner_.name(); }

  private:
    Workload &inner_;
    TraceWriter &writer_;
};

} // namespace fdp

#endif // FDP_TRACE_TRACE_WORKLOAD_HH
