/**
 * @file
 * Content-addressed on-disk store of sweep results (fdp-store-v1).
 *
 * Every (benchmark, config) sweep cell is a pure function of its
 * inputs: the micro-op trace the workload generator produces, the full
 * machine/policy configuration, and the simulator revision. The store
 * exploits that purity the way simulator farms around gem5/Scarab do —
 * never recompute a cell whose inputs have not changed. A cell's key
 * is the FNV-1a hash of a canonical string covering:
 *
 *   - the workload: benchmark name, calibrated seed, op count, and a
 *     content hash of the actual micro-op stream (so a generator
 *     change invalidates cached cells even at the same seed);
 *   - the configuration: the label plus every RunConfig knob, printed
 *     canonically (machine geometry, DRAM timing, prefetcher kind,
 *     FDP thresholds, instruction budget);
 *   - the code: the binary revision (FDP_BINARY_REV, set by CI to the
 *     commit SHA) and kSimCoreVersion, bumped on any intentional
 *     simulation-semantics change.
 *
 * Entries are single JSON files named <keyhash>.json, written via
 * temp-file + rename so a crashed or killed sweep never leaves a
 * half-written entry under its final name. Their result fields are the
 * ones forEachRunResultField() lists. Reads are defensive: truncated,
 * corrupt, tampered (a field of the wrong kind, a negative or inexact
 * counter, a non-finite double), or hash-colliding entries read as
 * misses (the cell just reruns and the entry is rewritten), never as
 * errors or wrong results.
 * Because the determinism contract makes results independent of
 * --jobs, machine, and completion order, stores can be merged across
 * machines with `fdp_results merge` (DESIGN.md Section 15).
 */

#ifndef FDP_HARNESS_RESULT_STORE_HH
#define FDP_HARNESS_RESULT_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json_value.hh"

namespace fdp
{

/**
 * Simulation-semantics version folded into every store key. Bump this
 * whenever a change intentionally alters simulated results (cache
 * policy fixes, latency model changes, FDP threshold updates, ...) so
 * stale cached cells can never satisfy a lookup from the new code.
 * Forgetting to bump is caught by CI's bench-diff trajectory gate,
 * which compares deterministic counters exactly against the committed
 * baseline.
 */
inline constexpr unsigned kSimCoreVersion = 1;

/**
 * Revision of the running binary: $FDP_BINARY_REV when set (CI exports
 * the commit SHA), else "local". Participates in every store key.
 */
std::string binaryRevision();

/** FNV-1a 64-bit over a byte string (the store's content hash). */
std::uint64_t fnv1a64(const std::string &bytes);

/** 16-hex-digit lowercase rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t hash);

/**
 * Canonical fingerprint of every RunConfig field that can influence
 * simulated results: the machineGeometry() of the machine and core,
 * then one "name=value" per policy, budget, and manager knob. Doubles
 * are printed with max_digits10 so distinct configurations never
 * collide.
 */
std::string configFingerprint(const RunConfig &config);

/**
 * Content hash of the first @p numOps micro-ops of @p benchmark's
 * calibrated generator — the exact stream a numOps-instruction run
 * consumes. Generator-speed (~10 ns/op), so hashing is cheap relative
 * to simulating the same ops.
 */
std::uint64_t workloadTraceHash(const std::string &benchmark,
                                std::uint64_t numOps);

/** Fully-resolved key of one sweep cell. */
struct StoreKey
{
    std::string benchmark;
    std::string configLabel;
    /** The canonical key string (stored in the entry and re-verified
     *  on lookup, so a hash collision reads as a miss). */
    std::string canonical;
    std::uint64_t hash = 0;

    /** Entry file name within the store directory. */
    std::string fileName() const { return hashHex(hash) + ".json"; }
};

/** Build a cell key with the workload trace hash precomputed (a sweep
 *  hashes each (benchmark, numInsts) stream once, on its workers). */
StoreKey makeStoreKey(const std::string &benchmark, const RunConfig &config,
                      const std::string &configLabel,
                      std::uint64_t traceHash);

/** Convenience form: computes the trace hash itself. */
StoreKey makeStoreKey(const std::string &benchmark, const RunConfig &config,
                      const std::string &configLabel);

/** One decoded store entry (for `fdp_results ls` and merge). */
struct StoreEntry
{
    std::string fileName;
    std::string canonical;
    std::string benchmark;
    std::string configLabel;
    std::string binaryRev;
    std::uint64_t simCoreVersion = 0;
    RunResult result;
};

/**
 * The on-disk store. Thread-compatible the way the sweep needs it:
 * lookups happen on the main thread before cells are submitted, and
 * concurrent insert() calls from pool workers are safe because each
 * writes its own temp file and rename() is atomic.
 */
class ResultStore
{
  public:
    /** Open (creating if needed) the store at @p dir; fatal when the
     *  directory cannot be created or is not usable. */
    explicit ResultStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Fetch the result cached under @p key into @p out. Returns false
     * (a miss) when the entry is absent, unreadable, fails to parse or
     * validate, or stores a different canonical key or simcore version
     * (collision or tampering); a present but unusable entry also
     * warns why.
     */
    bool lookup(const StoreKey &key, RunResult *out) const;

    /**
     * Persist @p result under @p key (temp file + atomic rename;
     * overwrites any existing entry). Fatal on I/O failure: the user
     * asked for a store, so losing results silently is worse than
     * stopping.
     */
    void insert(const StoreKey &key, const RunResult &result) const;

    /** Sorted entry file names (*.json) currently in the store. */
    std::vector<std::string> entryFiles() const;

    /**
     * Decode one entry file. Returns false with a diagnostic when it
     * cannot be read or is not a valid fdp-store-v1 document (every
     * header and result field present, of its kind and in range).
     */
    bool readEntry(const std::string &fileName, StoreEntry *out,
                   std::string *error) const;

    /**
     * Copy entry @p fileName into @p dst byte-for-byte (validated
     * first; temp + rename on the destination side). Returns false
     * with a diagnostic when the source entry is corrupt.
     */
    bool copyEntryTo(const std::string &fileName, const ResultStore &dst,
                     std::string *error) const;

    /** Delete entry @p fileName (missing files are not an error). */
    void removeEntry(const std::string &fileName) const;

  private:
    std::string dir_;
};

/** Serialize one result as an fdp-store-v1 JSON document. */
std::string storeEntryJson(const StoreKey &key, const RunResult &result);

/** Decode and validate the RunResult inside a parsed fdp-store-v1
 *  document; false with a diagnostic naming the first bad field. */
bool parseStoredResult(const JsonValue &doc, RunResult *out,
                       std::string *error);

} // namespace fdp

#endif // FDP_HARNESS_RESULT_STORE_HH
