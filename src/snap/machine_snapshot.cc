#include "snap/machine_snapshot.hh"

#include <iomanip>
#include <limits>
#include <sstream>

#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace fdp
{

std::string
machineGeometry(const MachineParams &machine, const CoreParams &core)
{
    std::ostringstream s;
    // Exact doubles: two bus rates that round alike at 6 digits can
    // still move a block in different cycle counts.
    s << std::setprecision(std::numeric_limits<double>::max_digits10);
    s << "l1{" << machine.l1.sizeBytes << "," << machine.l1.assoc
      << ",lat=" << machine.l1Latency << "}"
      << " l2{" << machine.l2.sizeBytes << "," << machine.l2.assoc
      << ",lat=" << machine.l2Latency << "}"
      << " mshrs=" << machine.l2Mshrs
      << " reserve=" << machine.mshrDemandReserve
      << " pfq=" << machine.prefetchQueueCap
      << " dram{banks=" << machine.dram.banks
      << ",row=" << machine.dram.rowBlocks
      << ",hit=" << machine.dram.accessRowHit
      << ",conf=" << machine.dram.accessRowConflict
      << ",cas=" << machine.dram.casToCASCycles
      << ",bus=" << machine.dram.busBytesPerCycle
      << ",ret=" << machine.dram.returnCycles
      << ",q=" << machine.dram.queueCapacity
      << ",wbhw=" << machine.dram.writebackHighWater << "}";
    // Geometry strings of flat-DRAM machines predate the controller, so
    // the controller block is appended only when it is selected: old
    // fdpsnap images keep loading against the default configuration.
    if (machine.dramCtrl.kind == DramKind::Controller)
        s << " dramctl{ch=" << machine.dramCtrl.channels
          << ",rowpol=" << static_cast<int>(machine.dramCtrl.rowPolicy)
          << ",fdpprio=" << (machine.dramCtrl.fdpPriority ? 1 : 0)
          << ",lowdrop=" << machine.dramCtrl.lowTierDropAt
          << ",qoscap=" << machine.dramCtrl.qosInFlightCap
          << ",qosw=" << (machine.dramCtrl.qosWeighted ? 1 : 0) << "}";
    if (machine.prefetchCache.enabled)
        s << " pcache{" << machine.prefetchCache.sizeBytes << ","
          << machine.prefetchCache.assoc << "}";
    else
        s << " pcache{off}";
    s << " wb=" << (machine.modelWritebacks ? 1 : 0)
      << " core{rob=" << core.robSize << ",w=" << core.width << "}";
    return s.str();
}

void
drainToQuiesce(EventQueue &events, MemorySystem &mem)
{
    while (!mem.quiesced()) {
        const Cycle nxt = events.nextEventCycle();
        FDP_ASSERT(nxt != kNoCycle,
                   "drainToQuiesce: memory busy with no pending events");
        events.serviceUntil(nxt);
    }
}

namespace
{

/** The snap library's own marker naming the saved prefetcher (or
 *  "none"), so restores can detect mismatches and forks can skip the
 *  prefetcher section without knowing its name in advance. */
constexpr const char *kPfMarker = "pf";

Snapshottable &
snapshottableWorkload(Workload &workload)
{
    auto *s = dynamic_cast<Snapshottable *>(&workload);
    if (s == nullptr)
        fatal("workload %s does not support snapshots (recording "
              "frontends never do; re-run without snapshotting)",
              workload.name());
    return *s;
}

} // namespace

SnapshotImageBody
captureMachine(const SnapshotParts &parts)
{
    SnapWriter w;
    parts.events.saveState(w);
    snapshottableWorkload(parts.workload).saveState(w);
    parts.core.saveState(w);
    parts.mem.saveState(w);
    parts.fdp.saveState(w);
    w.beginSection(kPfMarker);
    w.putString(parts.prefetcher ? parts.prefetcher->snapName() : "none");
    w.endSection();
    if (parts.prefetcher)
        parts.prefetcher->saveState(w);
    parts.fdpStats.saveState(w);
    parts.memStats.saveState(w);
    parts.coreStats.saveState(w);
    return SnapshotImageBody{w.bytes(), w.sectionCount()};
}

void
restoreMachine(const SnapshotParts &parts,
               const std::vector<std::uint8_t> &body, RestoreMode mode)
{
    SnapReader r(body);
    parts.events.loadState(r);
    snapshottableWorkload(parts.workload).loadState(r);
    parts.core.loadState(r);
    parts.mem.loadState(r);

    if (mode == RestoreMode::Fork) {
        // The forked cell rebuilds policy state from its own
        // configuration at the measurement boundary; skip the saved
        // sections, still validating the frame structure.
        r.skipSection("fdp");
        r.skipSection("fdp/counters");
        r.skipSection("fdp/filter");
    } else {
        parts.fdp.loadState(r);
    }

    r.openSection(kPfMarker);
    const std::string pf_name = r.getString();
    r.closeSection();
    if (mode == RestoreMode::Fork) {
        if (pf_name != "none")
            r.skipSection(pf_name);
    } else {
        const std::string have =
            parts.prefetcher ? parts.prefetcher->snapName() : "none";
        if (pf_name != have)
            fatal("snapshot: machine has prefetcher %s, snapshot has %s",
                  have.c_str(), pf_name.c_str());
        if (parts.prefetcher)
            parts.prefetcher->loadState(r);
    }

    if (mode == RestoreMode::Fork) {
        r.skipSection(parts.fdpStats.snapName());
        r.skipSection(parts.memStats.snapName());
        r.skipSection(parts.coreStats.snapName());
    } else {
        parts.fdpStats.loadState(r);
        parts.memStats.loadState(r);
        parts.coreStats.loadState(r);
    }

    if (!r.atEnd())
        fatal("snapshot: trailing bytes after the last section");
}

} // namespace fdp
