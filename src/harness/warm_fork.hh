/**
 * @file
 * Warm-fork sweep support (DESIGN.md Section 16).
 *
 * A sweep cell with warmupInsts > 0 spends most of its time re-warming
 * the same caches: the warm-up phase runs with the prefetcher detached,
 * so its machine state depends only on (benchmark, machine geometry,
 * warmupInsts) — one neutral warm-up serves every policy configuration.
 * This module captures that shared state once as an fdpsnap-v1 image
 * and forks each per-config measured run from the restored image,
 * bit-identical to warming each cell cold (runWorkload's in-place
 * warm-up path), because both sides cross the same measurement
 * boundary.
 *
 * Warm images are content-addressed into a result store's snaps/
 * subdirectory so resumed sweeps skip even the single warm-up run.
 */

#ifndef FDP_HARNESS_WARM_FORK_HH
#define FDP_HARNESS_WARM_FORK_HH

#include <string>

#include "harness/experiment.hh"
#include "snap/snapshot_file.hh"

namespace fdp
{

/**
 * Run @p config.warmupInsts instructions of @p benchmark on a neutral
 * machine (no prefetcher, default FDP policy, @p config's geometry),
 * drain to a quiesce point, and capture the machine. Fatal unless
 * warmupInsts > 0.
 */
SnapshotImage captureWarmSnapshot(const std::string &benchmark,
                                  const RunConfig &config);

/** captureWarmSnapshot + writeSnapshotFile (the --save-snap CLI path). */
void saveWarmSnapshot(const std::string &benchmark, const RunConfig &config,
                      const std::string &path);

/**
 * Fork one measured run from a warm image: rebuild @p config's machine,
 * restore the config-neutral sections, cross the measurement boundary,
 * and run config.numInsts instructions. Fatal when the image's
 * geometry or warm-up length disagrees with @p config.
 */
RunResult runBenchmarkFromSnapshot(const SnapshotImage &image,
                                   const RunConfig &config,
                                   const std::string &configLabel);

/**
 * Canonical content key of the warm snapshot @p config needs for
 * @p benchmark: the benchmark identity (name, seed, a content hash of
 * the first warmupInsts micro-ops), the machine geometry, the warm-up
 * length, the binary revision, and the simulator/snapshot versions.
 * Policy knobs are deliberately absent — that is the sharing.
 */
std::string warmSnapshotKey(const std::string &benchmark,
                            const RunConfig &config);

/** Entry path of the snapshot keyed @p key inside @p storeDir
 *  (creating the snaps/ subdirectory on first use). */
std::string warmSnapshotPath(const std::string &storeDir,
                             const std::string &key);

/**
 * Fetch the warm image for (benchmark, config) from the store at
 * @p storeDir, or capture it (and persist it) on a miss. An empty
 * @p storeDir skips persistence entirely, and with it the warm-trace
 * hash the key needs. An image that fails any container check, or
 * whose header disagrees with its key, warns and counts as a miss: it
 * is recaptured and overwritten. @p wasHit reports which happened (may
 * be nullptr). Safe to run concurrently on sweep workers for
 * distinct keys: runSweep runs one call per (benchmark, geometry,
 * warm-up) group.
 */
SnapshotImage loadOrCaptureWarmSnapshot(const std::string &storeDir,
                                        const std::string &benchmark,
                                        const RunConfig &config,
                                        bool *wasHit);

} // namespace fdp

#endif // FDP_HARNESS_WARM_FORK_HH
