#include "trace/trace_workload.hh"

#include "sim/logging.hh"

namespace fdp
{

TraceWorkload::TraceWorkload(const std::string &path) : reader_(path)
{
}

MicroOp
TraceWorkload::next()
{
    MicroOp op;
    if (!reader_.next(op))
        fatal("trace %s: exhausted after %llu micro-ops; the replayed "
              "run consumes more (record a longer trace)",
              reader_.path().c_str(),
              static_cast<unsigned long long>(reader_.header().opCount));
    return op;
}

void
TraceWorkload::audit() const
{
    reader_.audit();
}

template <typename Self, typename Io>
void
TraceWorkload::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.fixedStr(self.reader_.header().benchmark, "trace benchmark");
    std::uint64_t ops = self.reader_.opsRead();
    io.u64(ops);
    io.end();
    if constexpr (Io::kLoading) {
        // Re-read the trace up to the saved cursor.
        self.reader_.reset();
        MicroOp op;
        for (std::uint64_t i = 0; i < ops; ++i)
            if (!self.reader_.next(op))
                fatal("snapshot: trace %s holds %llu micro-ops but the "
                      "snapshot consumed %llu",
                      self.reader_.path().c_str(),
                      static_cast<unsigned long long>(
                          self.reader_.header().opCount),
                      static_cast<unsigned long long>(ops));
    }
}

void
TraceWorkload::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
TraceWorkload::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

MicroOp
RecordingWorkload::next()
{
    const MicroOp op = inner_.next();
    writer_.append(op);
    return op;
}

void
RecordingWorkload::reset()
{
    if (writer_.opCount() > 0)
        fatal("cannot reset workload %s while recording to %s: %llu "
              "micro-ops are already on disk", inner_.name(),
              writer_.path().c_str(),
              static_cast<unsigned long long>(writer_.opCount()));
    inner_.reset();
}

} // namespace fdp
