#include "harness/result_store.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/** @{ One RunResult field as an entry prints it. */
void
writeField(std::ostream &os, const std::string &v)
{
    os << '"' << jsonEscape(v) << '"';
}

void
writeField(std::ostream &os, std::uint64_t v)
{
    os << v;
}

void
writeField(std::ostream &os, double v)
{
    os << jsonNumber(v);
}

template <std::size_t N>
void
writeField(std::ostream &os, const std::array<double, N> &v)
{
    os << "[";
    for (std::size_t i = 0; i < N; ++i)
        os << (i ? ", " : "") << jsonNumber(v[i]);
    os << "]";
}
/** @} */

/** @{ Decode one field of an entry: "" on success, else what the
 *  value should have been. Counters are written as exact integers, and
 *  a double holds every integer only up to 2^53. */
std::string
readField(const JsonValue &v, std::string *out)
{
    if (v.kind != JsonValue::Kind::String)
        return "a string";
    *out = v.string;
    return "";
}

std::string
readField(const JsonValue &v, std::uint64_t *out)
{
    if (v.kind != JsonValue::Kind::Number || !(v.number >= 0.0) ||
        v.number > 9007199254740992.0 || v.number != std::floor(v.number))
        return "a non-negative integer up to 2^53";
    *out = static_cast<std::uint64_t>(v.number);
    return "";
}

std::string
readField(const JsonValue &v, double *out)
{
    if (v.kind != JsonValue::Kind::Number || !std::isfinite(v.number) ||
        v.number < 0.0)
        return "a finite non-negative number";
    *out = v.number;
    return "";
}

template <std::size_t N>
std::string
readField(const JsonValue &v, std::array<double, N> *out)
{
    const std::string want =
        "an array of " + std::to_string(N) + " finite non-negative numbers";
    if (v.kind != JsonValue::Kind::Array || v.items.size() != N)
        return want;
    for (std::size_t i = 0; i < N; ++i)
        if (!readField(v.items[i], &(*out)[i]).empty())
            return want;
    return "";
}
/** @} */

/** Decode member @p name of @p object; false with a diagnostic when it
 *  is absent or malformed. */
template <class T>
bool
readMember(const JsonValue &object, const char *name, T *out,
           std::string *error)
{
    const JsonValue *v = object.find(name);
    const std::string want = v ? readField(*v, out) : "present";
    if (!want.empty())
        *error = std::string("field ") + name + " is not " + want;
    return want.empty();
}

/** Parse and validate a whole fdp-store-v1 document: the header's
 *  strings and version, then every result field. */
bool
decodeEntry(const std::string &bytes, StoreEntry *out, std::string *error)
{
    JsonValue doc;
    if (!parseJson(bytes, &doc, error))
        return false;
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "fdp-store-v1") {
        *error = "not an fdp-store-v1 document";
        return false;
    }
    return readMember(doc, "canonical", &out->canonical, error) &&
           readMember(doc, "benchmark", &out->benchmark, error) &&
           readMember(doc, "config", &out->configLabel, error) &&
           readMember(doc, "binary_rev", &out->binaryRev, error) &&
           readMember(doc, "sim_core_version", &out->simCoreVersion,
                      error) &&
           parseStoredResult(doc, &out->result, error);
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
    os << "  \"result\": {";
    const char *separator = "\n";
    forEachRunResultField([&](const char *name, auto member) {
        os << separator << "    \"" << name << "\": ";
        writeField(os, r.*member);
        separator = ",\n";
    });
    os << "\n  }\n}\n";
    return os.str();
}

bool
parseStoredResult(const JsonValue &doc, RunResult *out, std::string *error)
{
    const JsonValue *res = doc.find("result");
    if (!res || res->kind != JsonValue::Kind::Object) {
        *error = "missing result object";
        return false;
    }
    *out = RunResult{};
    bool ok = true;
    forEachRunResultField([&](const char *name, auto member) {
        ok = ok && readMember(*res, name, &(out->*member), error);
    });
    return ok;
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
    std::string error;
    if (!readFileBytes(path, &bytes, &error))
        return false;  // absent (the common miss): stay quiet
    StoreEntry entry;
    if (!decodeEntry(bytes, &entry, &error)) {
        warn("result store: %s is corrupt (%s); treating as a miss",
             path.c_str(), error.c_str());
        return false;
    }
    if (entry.canonical != key.canonical ||
        entry.simCoreVersion != kSimCoreVersion) {
        warn("result store: %s does not match its key; treating as a "
             "miss", path.c_str());
        return false;
    }
    *out = std::move(entry.result);
    return true;
}

void
ResultStore::insert(const StoreKey &key, const RunResult &result) const
{
    std::string error;
    if (!writeFileAtomic(dir_ + "/" + key.fileName(),
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
    if (!readFileBytes(path, &bytes, error)) {
        *error = path + ": " + *error;
        return false;
    }
    out->fileName = fileName;
    return decodeEntry(bytes, out, error);
}

bool
ResultStore::copyEntryTo(const std::string &fileName,
                         const ResultStore &dst, std::string *error) const
{
    StoreEntry entry;
    if (!readEntry(fileName, &entry, error))
        return false;
    std::string bytes;
    if (!readFileBytes(dir_ + "/" + fileName, &bytes, error)) {
        *error = dir_ + "/" + fileName + ": " + *error;
        return false;
    }
    return writeFileAtomic(dst.dir() + "/" + fileName, bytes, error);
}

void
ResultStore::removeEntry(const std::string &fileName) const
{
    std::remove((dir_ + "/" + fileName).c_str());
}

} // namespace fdp
