#include "machines.hh"

#include <algorithm>
#include <bit>
#include <deque>

#include "manage/prefetcher_manager.hh"
#include "mc/mc_memory_system.hh"
#include "mc/mc_metrics.hh"
#include "snap/machine_snapshot.hh"
#include "workload/spec_suite.hh"

namespace perfbench
{

using namespace fdp;

namespace
{

/** FdpParams as SimMachine resolves them (static configs pin the
 *  controller to the static level). */
FdpParams
resolvedFdp(const RunConfig &config)
{
    FdpParams fp = config.fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = config.staticLevel;
    return fp;
}

bool
runsFullFdp(const RunConfig &config)
{
    return config.fdp.dynamicAggressiveness &&
           config.prefetcher != PrefetcherKind::None;
}

std::uint64_t
scalarNamed(const StatGroup &group, const std::string &name)
{
    for (const ScalarStat *s : group.scalars())
        if (s->name() == name)
            return s->value();
    panic("stat group %s has no scalar %s", group.name().c_str(),
          name.c_str());
}

/**
 * OooCore::run as a stepped loop, with the event queue and the core
 * step timed. Same arithmetic as OooCore::run, so the simulated result
 * is identical.
 */
void
drive(OooCore &core, EventQueue &events, std::uint64_t numInsts,
      Tracer *tracer, SimCounters &counters)
{
    const std::uint64_t serviced = events.serviced();
    core.beginRun(numInsts);
    Cycle cyc = events.horizon();
    const Cycle start = cyc;
    while (!core.runDone()) {
        {
            const Span span(tracer, Layer::Sim);
            events.serviceUntil(cyc);
        }
        bool progressed = false;
        {
            const Span span(tracer, Layer::Cpu);
            progressed = core.step(cyc);
        }
        if (core.runDone())
            break;
        Cycle nxt = cyc + 1;
        if (!progressed) {
            Cycle target = std::min(events.nextEventCycle(), core.wakeCycle());
            if (target == kNoCycle) {
                if (!core.robEmpty())
                    panic("core deadlock: stalled with no pending events");
                target = cyc + 1;
            }
            if (target > cyc)
                nxt = target;
            core.noteDeadTime(nxt - cyc);
        }
        cyc = nxt;
    }
    core.closeRun(start, cyc);
    counters.retiredOps += numInsts;
    counters.events += events.serviced() - serviced;
}

/** fdp::measurementBoundary for the decorated machine. */
void
boundary(TracedMachine &m)
{
    drainToQuiesce(m.events, m.mem);
    if (!m.events.empty())
        panic("measurement boundary: %zu events pending after drain",
              m.events.size());
    m.mem.flushStats();
    m.fdpStats.resetAll();
    m.memStats.resetAll();
    m.coreStats.resetAll();
    m.mem.resetAttribution();
    m.fdp.setPrefetcher(m.prefetcher.get());
    m.fdp.reset();
    m.mem.setPrefetcher(m.prefetcher.get());
    if (m.prefetcher)
        m.prefetcher->reset();
}

/**
 * fdp::wireAudits for the decorated machine. The hook does what the
 * library's does (publish batched counters, tick a manager, audit on
 * request) and also samples the DRAM queue depth and the FDP level.
 */
bool
wire(TracedMachine &m, AuditSet &audits, SimCounters &counters)
{
    audits.add(&m.events);
    audits.add(&m.fdp);
    audits.add(&m.mem);
    if (m.prefetcher)
        audits.add(m.prefetcher.get());
    audits.add(&m.workload);
    const bool periodicAudit = debugBuild() || auditRequestedByEnv();
    auto *manager = dynamic_cast<ManagedPrefetcher *>(m.innerPf.get());
    const bool dynamic = runsFullFdp(m.config);
    m.fdp.setEndOfIntervalHook([&m, &audits, &counters, periodicAudit,
                                manager, dynamic] {
        const Span hook(m.tracer, Layer::Core);
        m.mem.flushStats();
        if (manager != nullptr) {
            const Span tick(m.tracer, Layer::Manage);
            const FeedbackCounters &fc = m.fdp.counters();
            manager->intervalTick({fc.accuracy(), fc.lateness(),
                                   fc.pollution(), m.core.retired(),
                                   m.events.horizon()});
        }
        if (m.measuring) {
            counters.queueSum += m.mem.dram().queued();
            ++counters.queueSamples;
            if (dynamic) {
                counters.levelSum += m.fdp.level();
                ++counters.levelSamples;
            }
        }
        if (periodicAudit)
            audits.runAll();
    });
    return periodicAudit;
}

/** fdp::extractResult for the decorated machine. */
RunResult
extract(TracedMachine &m, const std::string &configLabel)
{
    m.mem.flushStats();
    RunResult r;
    r.benchmark = m.workload.name();
    r.config = configLabel;
    r.insts = m.core.retired();
    r.cycles = m.core.cycles();
    r.ipc = m.core.ipc();
    r.busAccesses = m.mem.dram().busAccesses();
    r.bpki = ratio(static_cast<double>(r.busAccesses),
                   static_cast<double>(r.insts) / 1000.0);
    r.accuracy = m.fdp.lifetimeAccuracy();
    r.lateness = m.fdp.lifetimeLateness();
    r.pollution = m.fdp.lifetimePollution();
    r.l2Misses = m.mem.l2Misses();
    r.demandAccesses = m.mem.demandAccesses();
    r.mshrStallCount = m.mem.mshrStalls();
    r.avgMissLatency = m.mem.avgDemandMissLatency();
    r.demandGrants = scalarNamed(m.memStats, "demand_grants");
    r.prefetchGrants = scalarNamed(m.memStats, "prefetch_grants");
    r.writebackGrants = scalarNamed(m.memStats, "writeback_grants");
    r.prefDropQueueFull = scalarNamed(m.memStats, "pref_drop_queue_full");
    r.prefSent = scalarNamed(m.fdpStats, "pref_sent");
    r.prefUsed = scalarNamed(m.fdpStats, "pref_used");
    const DistributionStat &ld = m.fdp.levelDistribution();
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        r.levelDist[i] = ld.fraction(i);
    const DistributionStat &id = m.fdp.insertDistribution();
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        r.insertDist[i] = id.fraction(i);
    return r;
}

std::string
describePrefetcher(const Prefetcher *pf)
{
    if (pf == nullptr)
        return "-";
    if (const auto *mgr = dynamic_cast<const ManagedPrefetcher *>(pf))
        return std::string("manager[") + mgr->activeName() + "]";
    return pf->name();
}

bool
same(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <std::size_t N>
bool
same(const std::array<double, N> &a, const std::array<double, N> &b)
{
    for (std::size_t i = 0; i < N; ++i)
        if (!same(a[i], b[i]))
            return false;
    return true;
}

} // namespace

void
SimCounters::addObserve(const std::string &benchmark,
                        const TracedPrefetcher &pf)
{
    for (const std::string &key :
         {std::string(pf.name()), std::string(pf.name()) + "@" + benchmark}) {
        ObserveStat &s = observe[key];
        s.calls += pf.calls();
        s.candidates += pf.candidates();
        s.ns += pf.ns();
    }
}

TracedMachine::TracedMachine(Workload &inner, const RunConfig &cfg,
                             Tracer *t)
    : tracer(t), config(cfg), innerPf(makeRunPrefetcher(cfg)),
      prefetcher(innerPf ? std::make_unique<TracedPrefetcher>(*innerPf, t)
                         : nullptr),
      fdp(resolvedFdp(cfg),
          cfg.warmupInsts == 0 ? prefetcher.get() : nullptr, fdpStats),
      mem(cfg.machine, events,
          cfg.warmupInsts == 0 ? prefetcher.get() : nullptr, fdp, memStats),
      port(mem, Layer::Mem, t), workload(inner, t),
      core(cfg.core, port, events, workload, coreStats)
{
}

SnapshotParts
TracedMachine::parts()
{
    return SnapshotParts{events,   workload, core,     mem,      fdp,
                         prefetcher.get(),   fdpStats, memStats, coreStats};
}

RunResult
runTracedCell(Workload &workload, const RunConfig &config,
              const std::string &label, const SnapshotImage *image,
              Tracer *tracer, SimCounters &counters)
{
    std::unique_ptr<TracedMachine> machine;
    {
        const Span span(image ? tracer : nullptr, Layer::Harness);
        machine = std::make_unique<TracedMachine>(workload, config, tracer);
        if (image != nullptr) {
            if (image->warmupInsts != config.warmupInsts ||
                image->geometry !=
                    machineGeometry(config.machine, config.core))
                fatal("warm image of %s does not fit cell %s",
                      image->benchmark.c_str(), label.c_str());
            restoreMachine(machine->parts(), image->body, RestoreMode::Fork);
        }
    }
    TracedMachine &m = *machine;
    AuditSet audits;
    const bool periodicAudit = wire(m, audits, counters);
    if (image != nullptr) {
        const Span span(tracer, Layer::Harness);
        boundary(m);
    } else if (config.warmupInsts > 0) {
        drive(m.core, m.events, config.warmupInsts, tracer, counters);
        boundary(m);
    }

    m.measuring = true;
    DramBackend &dram = m.mem.dram();
    const std::uint64_t busy = dram.busBusyCycles();
    const std::uint64_t rowHits = dram.rowHits();
    const std::uint64_t rowConflicts = dram.rowConflicts();
    drive(m.core, m.events, config.numInsts, tracer, counters);
    if (periodicAudit)
        audits.runAll();
    const RunResult r = extract(m, label);

    counters.cycles += r.cycles;
    counters.robFullCycles += scalarNamed(m.coreStats, "rob_full_cycles");
    counters.workloadCalls += m.workload.calls();
    counters.memAccesses += m.port.calls();
    counters.l2Hits += scalarNamed(m.memStats, "l2_hits");
    counters.l2Misses += r.l2Misses;
    counters.mshrStalls += r.mshrStallCount;
    counters.missFills += scalarNamed(m.memStats, "demand_miss_fills");
    counters.missCycles += scalarNamed(m.memStats, "demand_miss_cycles");
    counters.prefSent += r.prefSent;
    counters.prefUsed += r.prefUsed;
    counters.dropQueueFull += r.prefDropQueueFull;
    counters.intervals += m.fdp.intervalsCompleted();
    if (runsFullFdp(config)) {
        counters.latenessSum += r.lateness;
        counters.pollutionSum += r.pollution;
        ++counters.fdpRuns;
    }
    counters.busAccesses += r.busAccesses;
    counters.busBusyCycles += dram.busBusyCycles() - busy;
    counters.busCapacityCycles += r.cycles * dram.dataBuses();
    counters.rowHits += dram.rowHits() - rowHits;
    counters.rowConflicts += dram.rowConflicts() - rowConflicts;
    if (m.prefetcher)
        counters.addObserve(r.benchmark, *m.prefetcher);
    if (tracer)
        tracer->endCell(r.benchmark + "/" + label);
    return r;
}

SnapshotImage
captureTracedWarmSnapshot(const std::string &benchmark,
                          const RunConfig &config, Tracer *tracer,
                          SimCounters &counters)
{
    if (config.warmupInsts == 0)
        fatal("warm snapshot of %s: warmupInsts is 0", benchmark.c_str());
    RunConfig neutral = RunConfig::noPrefetching();
    neutral.machine = config.machine;
    neutral.core = config.core;
    neutral.warmupInsts = config.warmupInsts;

    SyntheticWorkload workload(benchmarkParams(benchmark));
    TracedMachine m(workload, neutral, tracer);
    drive(m.core, m.events, config.warmupInsts, tracer, counters);
    counters.workloadCalls += m.workload.calls();

    SnapshotImage image;
    {
        const Span span(tracer, Layer::Harness);
        drainToQuiesce(m.events, m.mem);
        m.mem.flushStats();
        SnapshotImageBody body = captureMachine(m.parts());
        image.benchmark = benchmark;
        image.geometry = machineGeometry(config.machine, config.core);
        image.warmupInsts = config.warmupInsts;
        image.sectionCount = body.sectionCount;
        image.body = std::move(body.bytes);
    }
    if (tracer)
        tracer->endCell(benchmark + "/warm");
    return image;
}

McRunResult
runTracedMc(const McRunConfig &config,
            const std::vector<std::unique_ptr<Workload>> &workloads,
            const std::string &mixName, const std::string &label,
            Tracer *tracer, SimCounters &counters)
{
    const unsigned n = config.numCores;
    if (n == 0 || workloads.size() != n)
        fatal("co-run of %u cores got %zu workloads", n, workloads.size());
    if (!config.corePrefetchers.empty() && config.corePrefetchers.size() != n)
        fatal("co-run of %u cores got %zu per-core prefetcher selections",
              n, config.corePrefetchers.size());

    EventQueue events;
    StatGroup sharedStats("mem");
    std::deque<StatGroup> coreStats;
    std::deque<FdpController> controllers;
    std::deque<OooCore> cores;
    std::deque<TracedWorkload> tracedWorkloads;
    std::deque<TracedPort> ports;
    std::vector<std::unique_ptr<Prefetcher>> inner;
    std::vector<std::unique_ptr<TracedPrefetcher>> traced;

    FdpParams fp = config.base.fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = config.base.staticLevel;

    std::vector<Prefetcher *> pfPtrs;
    std::vector<FdpController *> fdpPtrs;
    std::vector<StatGroup *> groupPtrs;
    for (unsigned i = 0; i < n; ++i) {
        coreStats.emplace_back("c" + std::to_string(i));
        const RunConfig cc =
            config.corePrefetchers.empty()
                ? config.base
                : applyPrefetcherSelection(config.base,
                                           config.corePrefetchers[i]);
        inner.push_back(makeRunPrefetcher(cc));
        traced.push_back(inner.back() ? std::make_unique<TracedPrefetcher>(
                                            *inner.back(), tracer)
                                      : nullptr);
        FdpParams fpi = fp;
        fpi.label = "fdp_controller.c" + std::to_string(i);
        controllers.emplace_back(fpi, traced.back().get(), coreStats.back());
        pfPtrs.push_back(traced.back().get());
        fdpPtrs.push_back(&controllers.back());
        groupPtrs.push_back(&coreStats.back());
    }

    McMemorySystem mem(config.base.machine, events, pfPtrs, fdpPtrs,
                       sharedStats, groupPtrs);
    for (unsigned i = 0; i < n; ++i) {
        ports.emplace_back(mem.port(CoreId(i)), Layer::Mc, tracer);
        tracedWorkloads.emplace_back(*workloads[i], tracer);
        cores.emplace_back(config.base.core, ports.back(), events,
                           tracedWorkloads.back(), coreStats[i]);
    }

    AuditSet audits;
    audits.add(&events);
    audits.add(&mem);
    for (unsigned i = 0; i < n; ++i) {
        audits.add(fdpPtrs[i]);
        if (pfPtrs[i])
            audits.add(pfPtrs[i]);
        audits.add(&tracedWorkloads[i]);
    }
    const bool periodicAudit = debugBuild() || auditRequestedByEnv();
    const bool dynamic = runsFullFdp(config.base);
    for (unsigned i = 0; i < n; ++i) {
        auto *mgr = dynamic_cast<ManagedPrefetcher *>(inner[i].get());
        const bool last = i + 1 == n;
        FdpController &ctrl = controllers[i];
        OooCore &core = cores[i];
        ctrl.setEndOfIntervalHook([&, mgr, last, periodicAudit, dynamic] {
            const Span hook(tracer, Layer::Core);
            if (mgr != nullptr) {
                const Span tick(tracer, Layer::Manage);
                const FeedbackCounters &fc = ctrl.counters();
                mgr->intervalTick({fc.accuracy(), fc.lateness(),
                                   fc.pollution(), core.retired(),
                                   events.horizon()});
            }
            if (dynamic) {
                counters.levelSum += ctrl.level();
                ++counters.levelSamples;
            }
            if (last) {
                counters.queueSum += mem.dram().queued();
                ++counters.queueSamples;
                if (periodicAudit)
                    audits.runAll();
            }
        });
    }

    for (unsigned i = 0; i < n; ++i)
        cores[i].beginRun(config.base.numInsts);
    Cycle cyc = events.horizon();
    const Cycle start = cyc;
    std::vector<Cycle> finish(n, start);
    std::vector<bool> running(n, true);
    unsigned live = n;
    while (live > 0) {
        {
            const Span span(tracer, Layer::Sim);
            events.serviceUntil(cyc);
        }
        bool progressed = false;
        for (unsigned i = 0; i < n; ++i) {
            if (!running[i])
                continue;
            {
                const Span span(tracer, Layer::Cpu);
                progressed = cores[i].step(cyc) || progressed;
            }
            if (cores[i].runDone()) {
                running[i] = false;
                finish[i] = cyc;
                --live;
            }
        }
        if (live == 0)
            break;
        Cycle nxt = cyc + 1;
        if (!progressed) {
            Cycle target = events.nextEventCycle();
            for (unsigned i = 0; i < n; ++i)
                if (running[i])
                    target = std::min(target, cores[i].wakeCycle());
            if (target == kNoCycle) {
                for (unsigned i = 0; i < n; ++i)
                    if (running[i] && !cores[i].robEmpty())
                        panic("core %u deadlock: stalled with no "
                              "pending events", i);
                target = cyc + 1;
            }
            if (target > cyc)
                nxt = target;
            for (unsigned i = 0; i < n; ++i)
                if (running[i])
                    cores[i].noteDeadTime(nxt - cyc);
        }
        cyc = nxt;
    }
    for (unsigned i = 0; i < n; ++i)
        cores[i].closeRun(start, finish[i]);
    if (periodicAudit)
        audits.runAll();

    McRunResult r;
    r.mix = mixName;
    r.config = label;
    r.numCores = n;
    r.busAccesses = mem.dram().busAccesses();
    for (unsigned i = 0; i < n; ++i) {
        McCoreResult c;
        c.program = workloads[i]->name();
        c.prefetcher = describePrefetcher(inner[i].get());
        c.insts = cores[i].retired();
        c.cycles = cores[i].cycles();
        c.ipc = cores[i].ipc();
        c.accuracy = controllers[i].lifetimeAccuracy();
        c.lateness = controllers[i].lifetimeLateness();
        c.pollution = controllers[i].lifetimePollution();
        c.l2Misses = mem.l2Misses(CoreId(i));
        c.demandAccesses = mem.demandAccesses(CoreId(i));
        c.busAccesses = mem.dram().busAccessesByCore(CoreId(i));
        c.bpki = ratio(static_cast<double>(c.busAccesses),
                       static_cast<double>(c.insts) / 1000.0);
        c.pollutionInflicted = mem.pollutionInflicted(CoreId(i));
        c.crossPollutionSuffered = mem.crossPollutionSuffered(CoreId(i));
        c.prefSent = scalarNamed(coreStats[i], "pref_sent");
        c.prefUsed = scalarNamed(coreStats[i], "pref_used");
        r.cycles = std::max(r.cycles, c.cycles);
        r.throughput += c.ipc;

        counters.retiredOps += c.insts;
        counters.cycles += c.cycles;
        counters.robFullCycles +=
            scalarNamed(coreStats[i], "rob_full_cycles");
        counters.workloadCalls += tracedWorkloads[i].calls();
        counters.mcAccesses += ports[i].calls();
        counters.crossPollution += c.crossPollutionSuffered;
        counters.prefSent += c.prefSent;
        counters.prefUsed += c.prefUsed;
        counters.dropQueueFull += mem.prefDropQueueFull(CoreId(i));
        counters.intervals += controllers[i].intervalsCompleted();
        if (dynamic) {
            counters.latenessSum += c.lateness;
            counters.pollutionSum += c.pollution;
            ++counters.fdpRuns;
        }
        if (traced[i])
            counters.addObserve(c.program, *traced[i]);
        r.cores.push_back(std::move(c));
    }
    counters.events += events.serviced();
    counters.busAccesses += r.busAccesses;
    counters.busBusyCycles += mem.dram().busBusyCycles();
    counters.busCapacityCycles += r.cycles * mem.dram().dataBuses();
    counters.rowHits += mem.dram().rowHits();
    counters.rowConflicts += mem.dram().rowConflicts();
    if (tracer)
        tracer->endCell(mixName + "/" + label);
    return r;
}

std::vector<McRunResult>
runTracedMixSweep(const MixSpec &mix,
                  const std::vector<McLabeledConfig> &configs,
                  Tracer *tracer, SimCounters &counters)
{
    const unsigned n = mix.numCores();
    if (!mix.corePrefetchers.empty())
        fatal("traced mix sweeps do not support per-core prefetchers");
    // Duplicate index of each entry, as runMixSweep derives it.
    std::vector<unsigned> dup(n, 0);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned prev = 0; prev < i; ++prev)
            if (mix.entries[prev].benchmark == mix.entries[i].benchmark &&
                mix.entries[prev].tracePath == mix.entries[i].tracePath)
                ++dup[i];

    std::vector<McRunResult> results;
    for (const McLabeledConfig &cfg : configs) {
        if (!cfg.config.corePrefetchers.empty())
            fatal("traced mix sweeps do not support per-core prefetchers");
        const auto workloads = buildMixWorkloads(mix);
        McRunResult r = runTracedMc(cfg.config, workloads, mix.name,
                                    cfg.label, tracer, counters);
        // One alone baseline per distinct (program, duplicate) stream.
        std::vector<std::string> keys;
        std::vector<double> keyIpc;
        std::vector<double> aloneIpc(n, 0.0);
        for (unsigned i = 0; i < n; ++i) {
            const MixEntry &e = mix.entries[i];
            const std::string key = e.benchmark + "|" + e.tracePath + "#" +
                                    std::to_string(dup[i]);
            auto it = std::find(keys.begin(), keys.end(), key);
            if (it == keys.end()) {
                const auto workload = buildAloneWorkload(e, dup[i]);
                const RunResult alone =
                    runTracedCell(*workload, cfg.config.base,
                                  cfg.label + "-alone", nullptr, tracer,
                                  counters);
                keys.push_back(key);
                keyIpc.push_back(alone.ipc);
                it = keys.end() - 1;
            }
            aloneIpc[i] = keyIpc[static_cast<std::size_t>(it - keys.begin())];
        }
        finalizeSpeedups(r, aloneIpc);
        results.push_back(std::move(r));
    }
    return results;
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    return a.benchmark == b.benchmark && a.config == b.config &&
           a.insts == b.insts && a.cycles == b.cycles && same(a.ipc, b.ipc) &&
           same(a.bpki, b.bpki) && same(a.accuracy, b.accuracy) &&
           same(a.lateness, b.lateness) && same(a.pollution, b.pollution) &&
           a.prefSent == b.prefSent && a.prefUsed == b.prefUsed &&
           a.busAccesses == b.busAccesses && a.l2Misses == b.l2Misses &&
           a.demandAccesses == b.demandAccesses &&
           a.demandGrants == b.demandGrants &&
           a.prefetchGrants == b.prefetchGrants &&
           a.writebackGrants == b.writebackGrants &&
           a.mshrStallCount == b.mshrStallCount &&
           a.prefDropQueueFull == b.prefDropQueueFull &&
           same(a.avgMissLatency, b.avgMissLatency) &&
           same(a.levelDist, b.levelDist) && same(a.insertDist, b.insertDist);
}

bool
sameResult(const McRunResult &a, const McRunResult &b)
{
    if (a.mix != b.mix || a.config != b.config ||
        a.numCores != b.numCores || a.cycles != b.cycles ||
        a.busAccesses != b.busAccesses || !same(a.throughput, b.throughput) ||
        !same(a.weightedSpeedup, b.weightedSpeedup) ||
        !same(a.harmonicSpeedup, b.harmonicSpeedup) ||
        !same(a.fairness, b.fairness) || a.cores.size() != b.cores.size())
        return false;
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        const McCoreResult &x = a.cores[i];
        const McCoreResult &y = b.cores[i];
        if (x.program != y.program || x.prefetcher != y.prefetcher ||
            x.insts != y.insts || x.cycles != y.cycles ||
            !same(x.ipc, y.ipc) || !same(x.bpki, y.bpki) ||
            !same(x.accuracy, y.accuracy) || !same(x.lateness, y.lateness) ||
            !same(x.pollution, y.pollution) || x.prefSent != y.prefSent ||
            x.prefUsed != y.prefUsed || x.l2Misses != y.l2Misses ||
            x.demandAccesses != y.demandAccesses ||
            x.busAccesses != y.busAccesses ||
            x.pollutionInflicted != y.pollutionInflicted ||
            x.crossPollutionSuffered != y.crossPollutionSuffered ||
            !same(x.aloneIpc, y.aloneIpc) || !same(x.speedup, y.speedup))
            return false;
    }
    return true;
}

} // namespace perfbench
