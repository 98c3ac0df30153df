#include "harness/result_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "sim/logging.hh"
#include "snap/machine_snapshot.hh"
#include "snap/snapshot_file.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnvStep(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xFF;
        h *= kFnvPrime;
    }
    return h;
}

/** Read a whole file; false (without diagnosis) when it cannot be. */
bool
readFileBytes(const std::string &path, std::string *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad())
        return false;
    *out = buffer.str();
    return true;
}

/** Write bytes to tmp + rename into place; false + errno msg on failure. */
bool
writeFileAtomic(const std::string &dir, const std::string &fileName,
                const std::string &bytes, std::string *error)
{
    // The temp name embeds the final name, so two concurrent writers of
    // the *same* key (legal only when their content is identical, by
    // the determinism contract) race harmlessly.
    const std::string tmp = dir + "/." + fileName + ".tmp";
    const std::string final_path = dir + "/" + fileName;
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            *error = tmp + ": " + std::strerror(errno);
            return false;
        }
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            *error = tmp + ": " + std::strerror(errno);
            return false;
        }
    }
    if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
        *error = final_path + ": rename: " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

/** Unsigned helper: JSON numbers are doubles, counters are exact
 *  integers well under 2^53, so the round trip is lossless. */
std::uint64_t
numberAsU64(const JsonValue *v)
{
    return v ? static_cast<std::uint64_t>(v->asNumber()) : 0;
}

} // namespace

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = kFnvOffset;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

std::string
hashHex(std::uint64_t hash)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

std::string
binaryRevision()
{
    if (const char *env = std::getenv("FDP_BINARY_REV"))
        if (*env != '\0')
            return env;
    return "local";
}

std::string
configFingerprint(const RunConfig &c)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    // The machine and core as the warm-image key and the snapshot
    // header print them (DESIGN.md Sec. 16); the rest is the policy.
    os << "geom{" << machineGeometry(c.machine, c.core) << "}"
       << " pf=" << static_cast<int>(c.prefetcher)
       << " static=" << c.staticLevel
       << " fdp.da=" << c.fdp.dynamicAggressiveness
       << " fdp.di=" << c.fdp.dynamicInsertion
       << " fdp.acc=" << c.fdp.accuracyOnly
       << " fdp.interval=" << c.fdp.intervalEvictions
       << " fdp.filter=" << c.fdp.filterBits
       << " fdp.init=" << c.fdp.initialLevel
       << " fdp.ins=" << static_cast<int>(c.fdp.staticInsertPos)
       << " thr.ah=" << c.fdp.thresholds.aHigh
       << " thr.al=" << c.fdp.thresholds.aLow
       << " thr.late=" << c.fdp.thresholds.tLateness
       << " thr.pol=" << c.fdp.thresholds.tPollution
       << " thr.plow=" << c.fdp.thresholds.pLow
       << " thr.phigh=" << c.fdp.thresholds.pHigh
       << " insts=" << c.numInsts
       // The warm-up length changes what a cell measures, and the
       // snapshot format version guards against a stale warm-fork
       // producer, so both participate in the key (DESIGN.md Sec. 16).
       << " warmup=" << c.warmupInsts
       << " snapver=" << kSnapVersion
       // Runtime management (DESIGN.md §17): the manager swaps the
       // prefetcher mid-run, so its on/off state, its FSM cadence, and
       // the zoo membership all change what a cell measures. The zoo
       // list uses the EFFECTIVE membership so "empty = default" can
       // never collide with an explicit different zoo.
       << " mgr=" << static_cast<int>(c.manager)
       << " mgr.explore=" << c.managerParams.exploreIntervals
       << " mgr.exploit=" << c.managerParams.exploitIntervals
       << " mgr.hyst=" << c.managerParams.hysteresisPct
       << " mgr.drop=" << c.managerParams.reexploreDropPct
       << " mgr.zoo=";
    const std::vector<PrefetcherKind> &zoo =
        c.managerZoo.empty() ? defaultManagerZoo() : c.managerZoo;
    for (std::size_t i = 0; i < zoo.size(); ++i)
        os << (i ? "," : "") << static_cast<int>(zoo[i]);
    return os.str();
}

std::uint64_t
workloadTraceHash(const std::string &benchmark, std::uint64_t numOps)
{
    auto workload = makeBenchmark(benchmark);  // fatal on unknown names
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t i = 0; i < numOps; ++i) {
        const MicroOp op = workload->next();
        h = fnvStep(h, static_cast<std::uint64_t>(op.kind) |
                           (static_cast<std::uint64_t>(op.depPrevLoad)
                            << 8));
        h = fnvStep(h, op.addr);
        h = fnvStep(h, op.pc);
    }
    return h;
}

StoreKey
makeStoreKey(const std::string &benchmark, const RunConfig &config,
             const std::string &configLabel, std::uint64_t traceHash)
{
    StoreKey key;
    key.benchmark = benchmark;
    key.configLabel = configLabel;
    key.canonical = "fdp-store-v1 bench=" + benchmark +
                    " seed=" + std::to_string(benchmarkParams(benchmark).seed) +
                    " trace=" + hashHex(traceHash) +
                    " label=" + configLabel +
                    " config{" + configFingerprint(config) + "}" +
                    " rev=" + binaryRevision() +
                    " simcore=" + std::to_string(kSimCoreVersion);
    key.hash = fnv1a64(key.canonical);
    return key;
}

StoreKey
makeStoreKey(const std::string &benchmark, const RunConfig &config,
             const std::string &configLabel)
{
    return makeStoreKey(benchmark, config, configLabel,
                        workloadTraceHash(benchmark, config.numInsts));
}

std::string
storeEntryJson(const StoreKey &key, const RunResult &r)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"fdp-store-v1\",\n";
    os << "  \"canonical\": \"" << jsonEscape(key.canonical)
       << "\",\n";
    os << "  \"benchmark\": \"" << jsonEscape(key.benchmark)
       << "\",\n";
    os << "  \"config\": \"" << jsonEscape(key.configLabel)
       << "\",\n";
    os << "  \"binary_rev\": \"" << jsonEscape(binaryRevision())
       << "\",\n";
    os << "  \"sim_core_version\": " << kSimCoreVersion << ",\n";
    os << "  \"result\": {\n";
    auto str = [&](const char *name, const std::string &v, bool comma) {
        os << "    \"" << name << "\": \"" << jsonEscape(v) << "\""
           << (comma ? ",\n" : "\n");
    };
    auto num = [&](const char *name, double v, bool comma = true) {
        os << "    \"" << name << "\": " << jsonNumber(v)
           << (comma ? ",\n" : "\n");
    };
    auto cnt = [&](const char *name, std::uint64_t v, bool comma = true) {
        os << "    \"" << name << "\": " << v << (comma ? ",\n" : "\n");
    };
    str("benchmark", r.benchmark, true);
    str("config", r.config, true);
    cnt("insts", r.insts);
    cnt("cycles", r.cycles);
    num("ipc", r.ipc);
    num("bpki", r.bpki);
    num("accuracy", r.accuracy);
    num("lateness", r.lateness);
    num("pollution", r.pollution);
    cnt("pref_sent", r.prefSent);
    cnt("pref_used", r.prefUsed);
    cnt("bus_accesses", r.busAccesses);
    cnt("l2_misses", r.l2Misses);
    cnt("demand_accesses", r.demandAccesses);
    cnt("demand_grants", r.demandGrants);
    cnt("prefetch_grants", r.prefetchGrants);
    cnt("writeback_grants", r.writebackGrants);
    cnt("mshr_stall_count", r.mshrStallCount);
    cnt("pref_drop_queue_full", r.prefDropQueueFull);
    num("avg_miss_latency", r.avgMissLatency);
    auto arr = [&](const char *name, const double *v, std::size_t n,
                   bool comma) {
        os << "    \"" << name << "\": [";
        for (std::size_t i = 0; i < n; ++i)
            os << (i ? ", " : "") << jsonNumber(v[i]);
        os << "]" << (comma ? ",\n" : "\n");
    };
    arr("level_dist", r.levelDist.data(), r.levelDist.size(), true);
    arr("insert_dist", r.insertDist.data(), r.insertDist.size(), false);
    os << "  }\n}\n";
    return os.str();
}

bool
parseStoredResult(const JsonValue &doc, RunResult *out, std::string *error)
{
    error->clear();
    const JsonValue *res = doc.find("result");
    if (!res || res->kind != JsonValue::Kind::Object) {
        *error = "missing result object";
        return false;
    }
    auto require = [&](const char *name) -> const JsonValue * {
        const JsonValue *v = res->find(name);
        if (!v && error->empty())
            *error = std::string("missing result field ") + name;
        return v;
    };
    *out = RunResult{};
    const JsonValue *bench = require("benchmark");
    const JsonValue *config = require("config");
    out->benchmark = bench ? bench->asString() : "";
    out->config = config ? config->asString() : "";
    out->insts = numberAsU64(require("insts"));
    out->cycles = numberAsU64(require("cycles"));
    out->ipc = require("ipc") ? res->find("ipc")->asNumber() : 0.0;
    out->bpki = require("bpki") ? res->find("bpki")->asNumber() : 0.0;
    out->accuracy =
        require("accuracy") ? res->find("accuracy")->asNumber() : 0.0;
    out->lateness =
        require("lateness") ? res->find("lateness")->asNumber() : 0.0;
    out->pollution =
        require("pollution") ? res->find("pollution")->asNumber() : 0.0;
    out->prefSent = numberAsU64(require("pref_sent"));
    out->prefUsed = numberAsU64(require("pref_used"));
    out->busAccesses = numberAsU64(require("bus_accesses"));
    out->l2Misses = numberAsU64(require("l2_misses"));
    out->demandAccesses = numberAsU64(require("demand_accesses"));
    out->demandGrants = numberAsU64(require("demand_grants"));
    out->prefetchGrants = numberAsU64(require("prefetch_grants"));
    out->writebackGrants = numberAsU64(require("writeback_grants"));
    out->mshrStallCount = numberAsU64(require("mshr_stall_count"));
    out->prefDropQueueFull = numberAsU64(require("pref_drop_queue_full"));
    out->avgMissLatency = require("avg_miss_latency")
                              ? res->find("avg_miss_latency")->asNumber()
                              : 0.0;
    auto fillArray = [&](const char *name, double *dst, std::size_t n) {
        const JsonValue *v = require(name);
        if (!v)
            return;
        if (v->kind != JsonValue::Kind::Array || v->items.size() != n) {
            if (error->empty())
                *error = std::string("result field ") + name +
                         " is not an array of " + std::to_string(n);
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = v->items[i].asNumber();
    };
    fillArray("level_dist", out->levelDist.data(), out->levelDist.size());
    fillArray("insert_dist", out->insertDist.data(),
              out->insertDist.size());
    return error->empty();
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("result store: empty directory path");
    // Create the path one component at a time (mkdir -p): sweeps are
    // routinely pointed at build-tree subdirectories that do not exist
    // yet. Existing components are fine; anything else is fatal.
    std::string prefix;
    std::size_t pos = 0;
    while (pos <= dir_.size()) {
        std::size_t next = dir_.find('/', pos);
        if (next == std::string::npos)
            next = dir_.size();
        prefix = dir_.substr(0, next);
        pos = next + 1;
        if (prefix.empty() || prefix == ".")
            continue;
        if (mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            fatal("result store: cannot create %s: %s", prefix.c_str(),
                  std::strerror(errno));
    }
    struct stat st;
    if (stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("result store: %s is not a directory", dir_.c_str());
}

bool
ResultStore::lookup(const StoreKey &key, RunResult *out) const
{
    const std::string path = dir_ + "/" + key.fileName();
    std::string bytes;
    if (!readFileBytes(path, &bytes))
        return false;  // absent (the common miss): stay quiet
    JsonValue doc;
    std::string error;
    if (!parseJson(bytes, &doc, &error)) {
        warn("result store: %s is corrupt (%s); treating as a miss",
             path.c_str(), error.c_str());
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    const JsonValue *canonical = doc.find("canonical");
    if (!schema || schema->asString() != "fdp-store-v1" || !canonical ||
        canonical->asString() != key.canonical) {
        warn("result store: %s does not match its key; treating as a "
             "miss", path.c_str());
        return false;
    }
    if (!parseStoredResult(doc, out, &error)) {
        warn("result store: %s is corrupt (%s); treating as a miss",
             path.c_str(), error.c_str());
        return false;
    }
    return true;
}

void
ResultStore::insert(const StoreKey &key, const RunResult &result) const
{
    std::string error;
    if (!writeFileAtomic(dir_, key.fileName(),
                         storeEntryJson(key, result), &error))
        fatal("result store: cannot write entry: %s", error.c_str());
}

std::vector<std::string>
ResultStore::entryFiles() const
{
    std::vector<std::string> files;
    DIR *d = opendir(dir_.c_str());
    if (!d)
        fatal("result store: cannot list %s: %s", dir_.c_str(),
              std::strerror(errno));
    while (const dirent *ent = readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() > 5 && name[0] != '.' &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            files.push_back(name);
    }
    closedir(d);
    std::sort(files.begin(), files.end());
    return files;
}

bool
ResultStore::readEntry(const std::string &fileName, StoreEntry *out,
                       std::string *error) const
{
    const std::string path = dir_ + "/" + fileName;
    std::string bytes;
    if (!readFileBytes(path, &bytes)) {
        *error = "cannot read " + path;
        return false;
    }
    JsonValue doc;
    if (!parseJson(bytes, &doc, error))
        return false;
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "fdp-store-v1") {
        *error = "not an fdp-store-v1 document";
        return false;
    }
    out->fileName = fileName;
    out->canonical = doc.find("canonical") ?
        doc.find("canonical")->asString() : "";
    out->benchmark = doc.find("benchmark") ?
        doc.find("benchmark")->asString() : "";
    out->configLabel = doc.find("config") ?
        doc.find("config")->asString() : "";
    out->binaryRev = doc.find("binary_rev") ?
        doc.find("binary_rev")->asString() : "";
    out->simCoreVersion = static_cast<unsigned>(
        doc.find("sim_core_version")
            ? doc.find("sim_core_version")->asNumber()
            : 0.0);
    return parseStoredResult(doc, &out->result, error);
}

bool
ResultStore::copyEntryTo(const std::string &fileName,
                         const ResultStore &dst, std::string *error) const
{
    StoreEntry entry;
    if (!readEntry(fileName, &entry, error))
        return false;
    std::string bytes;
    if (!readFileBytes(dir_ + "/" + fileName, &bytes)) {
        *error = "cannot re-read " + dir_ + "/" + fileName;
        return false;
    }
    return writeFileAtomic(dst.dir(), fileName, bytes, error);
}

void
ResultStore::removeEntry(const std::string &fileName) const
{
    std::remove((dir_ + "/" + fileName).c_str());
}

} // namespace fdp
