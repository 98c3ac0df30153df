/**
 * @file
 * fdp_perfbench: one benchmark workload, timed or traced.
 *
 *   fdp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --out FILE [--spans FILE] [--workdir DIR]
 *                 [--scale-down N]
 *
 * --trace 0 measures the end-to-end metrics: repeated set-ups, each in
 * a fresh process (this binary again, with --setup-only 1), then
 * repetitions of the workload's job through the simulator's public entry
 * points for S seconds (medians reported), then the equivalence checks.
 * --trace 1 runs pairs of untraced and traced passes for S seconds and
 * reports the per-layer metrics. The human-readable report goes to
 * stdout; the result record (metrics, check tally, in-situ timings) goes
 * to --out as JSON. --scale-down divides every cell's length (for
 * tests). perfbench/run.py wraps this binary.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Set-ups per timed run: at least this many, and for at least
 *  kSetupSeconds in all; setup_s is their median. */
constexpr std::size_t kMinSetups = 7;
constexpr double kSetupSeconds = 3.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string out;
    std::string spans;
    std::string workDir = ".";
    std::uint64_t scaleDown = 1;
    /** Run the set-up only, then write one line to stdout and exit. */
    bool setupOnly = false;
};

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            fdp::fatal("%s needs a value", a.c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = fdp::parseCountArg("--seconds", v, 3600);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--out")
            o.out = v;
        else if (a == "--spans")
            o.spans = v;
        else if (a == "--workdir")
            o.workDir = v;
        else if (a == "--scale-down")
            o.scaleDown = fdp::parseCountArg("--scale-down", v, 1000);
        else if (a == "--setup-only")
            o.setupOnly = std::strcmp(v, "0") != 0;
        else
            fdp::fatal("unknown option %s", a.c_str());
    }
    if (o.workload.empty() || (o.out.empty() && !o.setupOnly))
        fdp::fatal("usage: fdp_perfbench --workload NAME --seed N "
                   "--seconds S --trace 0|1 --out FILE");
    return o;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
div0(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

struct Record
{
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, double>> inSitu;
    std::vector<std::string> report;
};

void
writeRecord(const std::string &path, const Record &rec,
            const CheckTally &tally, std::uint64_t reps)
{
    bool finite = true;
    std::string m;
    for (const Metric &x : rec.metrics) {
        finite = finite && std::isfinite(x.value);
        m += (m.empty() ? "" : ", ") + jsonString(x.name) +
             ": {\"value\": " + jsonNumber(x.value) +
             ", \"unit\": " + jsonString(x.unit) + "}";
    }
    std::string s;
    for (const auto &[k, v] : rec.inSitu)
        s += (s.empty() ? "" : ", ") + jsonString(k) + ": " + jsonNumber(v);
    std::string r;
    for (const std::string &line : rec.report)
        r += (r.empty() ? "" : ", ") + jsonString(line);
    std::ofstream f(path);
    f << "{\"correct\": "
      << (tally.failed() == 0 && tally.attempted() > 0 && finite ? "true"
                                                                 : "false")
      << ", \"attempted\": " << tally.attempted()
      << ", \"failed\": " << tally.failed() << ", \"metrics\": {" << m
      << "}, \"cells_failed\": "
      << jsonNumber(div0(static_cast<double>(tally.failed()),
                         static_cast<double>(tally.attempted())))
      << ", \"reps\": " << reps << ", \"in_situ\": {" << s
      << "}, \"report\": [" << r << "]}\n";
    if (!f)
        fdp::fatal("cannot write %s", path.c_str());
}

/** Report line "name  value unit  note". */
std::string
line(const Metric &m, const std::string &note = "")
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-30s %14.6g %-8s %s", m.name.c_str(),
                  m.value, m.unit.c_str(), note.c_str());
    return buf;
}

/**
 * Peak resident memory of this process image. VmHWM, not getrusage:
 * ru_maxrss keeps the peak of the parent image this process was
 * exec'ed from (the Python wrapper), VmHWM starts afresh at exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    fdp::fatal("cannot read VmHWM from /proc/self/status");
}

/**
 * One set-up as a user meets it: from the start of a fresh process to
 * the point where its first timed cell would begin. Spawns this binary
 * with --setup-only 1 in @p workDir and times it from the spawn to the
 * line the child writes once its set-up is done.
 */
double
timeSetupProcess(const Options &o, const std::string &workDir)
{
    static const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<std::string> args = {
        self,
        "--workload", o.workload,
        "--seed", std::to_string(o.seed),
        "--workdir", workDir,
        "--scale-down", std::to_string(o.scaleDown),
        "--setup-only", "1"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        fdp::fatal("cannot create a pipe for the set-up process");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const Clock::time_point t0 = Clock::now();
    const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    char ready = 0;
    const bool gotLine = rc == 0 && read(fds[0], &ready, 1) == 1;
    const double seconds = secondsSince(t0);
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !gotLine ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fdp::fatal("set-up process for %s failed", o.workload.c_str());
    return seconds;
}

Record
timedRun(BenchWorkload &wl, const Options &o, CheckTally &tally,
         std::uint64_t &reps)
{
    std::vector<double> setups;
    const std::string setupDir = o.workDir + "/setup";
    const Clock::time_point setupPhase = Clock::now();
    while (setups.size() < kMinSetups ||
           secondsSince(setupPhase) < kSetupSeconds)
        setups.push_back(timeSetupProcess(o, setupDir));
    std::filesystem::remove_all(setupDir);
    wl.setup();

    // Repeat while another repetition of the median length still fits.
    std::vector<double> walls, rates;
    const Clock::time_point phase = Clock::now();
    do {
        const Clock::time_point r0 = Clock::now();
        const std::uint64_t ops = wl.rep(tally);
        const double wall = secondsSince(r0);
        walls.push_back(wall);
        rates.push_back(static_cast<double>(ops) / wall / 1e6);
    } while (secondsSince(phase) + median(walls) <=
             static_cast<double>(o.seconds));
    reps = walls.size();

    const double peakMb = peakRssMb();

    wl.check(tally);

    Record rec;
    rec.metrics = {
        {"mops_per_s", "Mops/s", median(rates)},
        {"wall_s", "s", median(walls)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peakMb},
    };
    for (const Metric &m : wl.simulatedMetrics())
        rec.metrics.push_back(m);

    char head[200];
    std::snprintf(head, sizeof head,
                  "end-to-end (host metrics: medians of %zu repetitions, "
                  "wall_s min %.4g max %.4g, and of %zu set-up processes; "
                  "simulated metrics repeat exactly)",
                  walls.size(), *std::min_element(walls.begin(), walls.end()),
                  *std::max_element(walls.begin(), walls.end()),
                  setups.size());
    rec.report.push_back(head);
    for (const Metric &m : rec.metrics)
        rec.report.push_back(line(m));
    char cells[64];
    std::snprintf(cells, sizeof cells, "(%llu of %llu cells)",
                  static_cast<unsigned long long>(tally.failed()),
                  static_cast<unsigned long long>(tally.attempted()));
    rec.report.push_back(line(
        {"cells_failed", "share",
         div0(static_cast<double>(tally.failed()),
              static_cast<double>(tally.attempted()))},
        cells));
    const std::vector<std::string> ref = wl.referenceLines();
    if (!ref.empty()) {
        rec.report.push_back("reference (paper Section 6.1):");
        for (const std::string &l : ref)
            rec.report.push_back("  " + l);
    } else {
        rec.report.push_back("reference: none on this workload; no metric "
                             "here is validated against a reference");
    }
    return rec;
}

void
writeSpans(const std::string &path, const Tracer &tracer)
{
    std::ofstream f(path);
    f << "{\"cells\": [\n";
    bool firstCell = true;
    for (const CellSpans &c : tracer.cells()) {
        f << (firstCell ? "" : ",\n") << "  {\"cell\": " << jsonString(c.cell)
          << ", \"layers\": {";
        firstCell = false;
        bool firstLayer = true;
        for (std::size_t i = 0; i < kLayers; ++i) {
            const LayerStat &s = c.layers[i];
            if (s.calls == 0)
                continue;
            f << (firstLayer ? "" : ", ")
              << jsonString(layerName(static_cast<Layer>(i)))
              << ": {\"calls\": " << s.calls << ", \"total_ns\": "
              << s.totalNs << ", \"self_ns\": " << s.selfNs << "}";
            firstLayer = false;
        }
        f << "}}";
    }
    f << "\n]}\n";
    if (!f)
        fdp::fatal("cannot write %s", path.c_str());
}

Record
tracedRun(BenchWorkload &wl, const Options &o, CheckTally &tally,
          std::uint64_t &reps)
{
    wl.setup();
    const ClockCost cost = Tracer::calibrate();
    Tracer tracer;
    SimCounters c;
    TracedPair sum;
    // Repeat while another pair of the last pair's length still fits.
    const Clock::time_point phase = Clock::now();
    double pairS = 0.0;
    do {
        const Clock::time_point p0 = Clock::now();
        const TracedPair p = wl.tracedPair(tracer, c, tally);
        pairS = secondsSince(p0);
        sum.untracedS += p.untracedS;
        sum.tracedS += p.tracedS;
        sum.warmCaptureS += p.warmCaptureS;
        sum.forkRunS += p.forkRunS;
        sum.imageBytes += p.imageBytes;
        ++reps;
    } while (secondsSince(phase) + pairS <= static_cast<double>(o.seconds));

    const LayerStats tot = tracer.totals();
    const auto L = [&tot](Layer l) -> const LayerStat & {
        return tot[static_cast<std::size_t>(l)];
    };
    // Per-call times have the calibrated tracing cost taken out.
    const auto selfPer = [&](Layer l, double den) {
        return div0(cost.correctedSelfNs(L(l)), den);
    };
    const auto totalPer = [&](Layer l) {
        return div0(cost.correctedTotalNs(L(l)),
                    static_cast<double>(L(l).calls));
    };
    // Counts are reported per traced pass, so they repeat exactly
    // whatever the number of passes that fit in --seconds.
    const double passes = static_cast<double>(reps);
    const auto perPass = [passes](double v) { return v / passes; };
    std::uint64_t candidates = 0;
    for (const auto &[key, s] : c.observe)
        if (key.find('@') == std::string::npos)
            candidates += s.candidates;
    // Accounting: corrected layer self times + tracing cost +
    // unattributed time = the traced total.
    const double rootNs =
        static_cast<double>(tracer.rootCalls()) * cost.outerNs;
    double selfSum = 0.0;
    double tracingNs = rootNs;
    for (const LayerStat &s : tot) {
        selfSum += static_cast<double>(s.selfNs);
        tracingNs += cost.chargedNs(s);
    }
    const double tracedNs = sum.tracedS * 1e9;
    const double unattributedNs = tracedNs - selfSum - rootNs;
    const auto calls = [&](Layer l) {
        return static_cast<double>(L(l).calls);
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    Record rec;
    rec.metrics = {
        {"workload.next_ns", "ns",
         selfPer(Layer::Workload, calls(Layer::Workload))},
        {"workload.next_calls", "count", perPass(calls(Layer::Workload))},
        {"cpu.step_self_ns_per_op", "ns",
         selfPer(Layer::Cpu, d(c.retiredOps))},
        {"cpu.rob_full_frac", "ratio", div0(d(c.robFullCycles), d(c.cycles))},
        {"mem.access_self_ns", "ns", selfPer(Layer::Mem, calls(Layer::Mem))},
        {"mem.accesses", "count", perPass(calls(Layer::Mem))},
        {"mem.l2_miss_rate", "ratio",
         div0(d(c.l2Misses), d(c.l2Hits + c.l2Misses))},
        {"mem.mshr_stalls", "count", perPass(d(c.mshrStalls))},
        {"mem.miss_latency_cycles", "cycles",
         div0(d(c.missCycles), d(c.missFills))},
        {"mc.access_self_ns", "ns", selfPer(Layer::Mc, calls(Layer::Mc))},
        {"mc.cross_pollution", "count", perPass(d(c.crossPollution))},
        {"prefetch.observe_ns", "ns",
         selfPer(Layer::Prefetch, calls(Layer::Prefetch))},
        {"prefetch.observe_calls", "count", perPass(calls(Layer::Prefetch))},
        {"prefetch.candidates_per_call", "count",
         div0(d(candidates), calls(Layer::Prefetch))},
        {"prefetch.accuracy", "ratio", div0(d(c.prefUsed), d(c.prefSent))},
        {"prefetch.drop_queue_full", "count", perPass(d(c.dropQueueFull))},
        {"core.intervals", "count", perPass(d(c.intervals))},
        {"core.hook_ns", "ns", totalPer(Layer::Core)},
        {"core.level_mean", "level", div0(d(c.levelSum), d(c.levelSamples))},
        {"core.lateness", "ratio", div0(c.latenessSum, d(c.fdpRuns))},
        {"core.pollution", "ratio", div0(c.pollutionSum, d(c.fdpRuns))},
        {"manage.tick_ns", "ns", totalPer(Layer::Manage)},
        {"manage.ticks", "count", perPass(calls(Layer::Manage))},
        {"dram.bus_accesses", "count", perPass(d(c.busAccesses))},
        {"dram.bus_util", "ratio",
         div0(d(c.busBusyCycles), d(c.busCapacityCycles))},
        {"dram.row_hit_rate", "ratio",
         div0(d(c.rowHits), d(c.rowHits + c.rowConflicts))},
        {"dram.queue_depth_mean", "count",
         div0(d(c.queueSum), d(c.queueSamples))},
        {"sim.events", "count", perPass(d(c.events))},
        {"sim.service_self_ns_per_event", "ns",
         selfPer(Layer::Sim, d(c.events))},
        {"harness.warm_capture_s", "s", perPass(sum.warmCaptureS)},
        {"harness.fork_run_s", "s", perPass(sum.forkRunS)},
        {"snap.image_bytes", "bytes", perPass(sum.imageBytes)},
        {"unattributed_frac", "ratio", div0(unattributedNs, tracedNs)},
        {"tracing.overhead_x", "x", div0(sum.tracedS, sum.untracedS)},
    };

    // In-situ ns per call for the micro-benchmark comparison.
    for (const auto &[key, s] : c.observe)
        rec.inSitu.push_back(
            {"observe:" + key,
             div0(std::max(0.0, static_cast<double>(s.ns) -
                                    d(s.calls) * cost.innerNs),
                  d(s.calls))});
    if (calls(Layer::Manage) > 0)
        rec.inSitu.push_back({"manager_tick", totalPer(Layer::Manage)});
    rec.inSitu.push_back(
        {"workload_next", selfPer(Layer::Workload, calls(Layer::Workload))});
    rec.inSitu.push_back(
        {"event_service", selfPer(Layer::Sim, d(c.events))});

    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "per-layer (%llu traced pass%s, traced %.3f s vs untraced "
                  "%.3f s; self time = span minus child spans; tracing "
                  "cost %.1f ns inside + %.1f ns outside each span)",
                  static_cast<unsigned long long>(reps), reps == 1 ? "" : "es",
                  sum.tracedS, sum.untracedS, cost.innerNs, cost.outerNs);
    rec.report.push_back(buf);
    rec.report.push_back("  layer          calls/pass      self s/pass   share");
    const auto row = [&](const char *name, double calls, double ns) {
        std::snprintf(buf, sizeof buf, "  %-12s %12.0f %16.6f %6.1f%%", name,
                      calls, perPass(ns / 1e9), 100.0 * div0(ns, tracedNs));
        rec.report.push_back(buf);
    };
    for (std::size_t i = 0; i < kLayers; ++i)
        row(layerName(static_cast<Layer>(i)),
            perPass(static_cast<double>(tot[i].calls)),
            cost.correctedSelfNs(tot[i]));
    row("tracing", 0, tracingNs);
    row("unattributed", 0, unattributedNs);
    row("total", 0, tracedNs);
    std::snprintf(buf, sizeof buf,
                  "  traced - untraced = %.3f s/pass against %.3f s/pass of "
                  "calibrated tracing cost; the rest is the tracing's "
                  "disturbance (caches, branches), left in the layers",
                  perPass(sum.tracedS - sum.untracedS),
                  perPass(tracingNs / 1e9));
    rec.report.push_back(buf);
    for (const Metric &m : rec.metrics)
        rec.report.push_back(line(m));

    if (!o.spans.empty())
        writeSpans(o.spans, tracer);
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    std::filesystem::create_directories(o.workDir);
    WorkloadOptions wo;
    wo.seed = o.seed;
    wo.workDir = o.workDir;
    wo.scaleDown = o.scaleDown;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    wo.jobs = std::min(4u, hw);
    const auto wl = makeWorkload(o.workload, wo);
    if (o.setupOnly) {
        wl->setup();
        std::printf("ready\n");
        std::fflush(stdout);
        return 0;
    }

    CheckTally tally;
    std::uint64_t reps = 0;
    const Record rec = o.trace ? tracedRun(*wl, o, tally, reps)
                               : timedRun(*wl, o, tally, reps);
    std::printf("perfbench %s seed=%llu trace=%d jobs=%u\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, wo.jobs);
    for (const std::string &l : rec.report)
        std::printf("%s\n", l.c_str());
    writeRecord(o.out, rec, tally, reps);
    return 0;
}
