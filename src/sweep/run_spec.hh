/**
 * @file
 * The unit of work of the evaluation sweep: one (benchmark-or-mix,
 * policy, configuration) simulation, identified by a stable string key
 * that doubles as its on-disk cache name.
 *
 * Environment knobs (read once per SweepOptions construction):
 *   SLIP_BENCH_REFS   measured references per run (default 1500000)
 *   SLIP_BENCH_WARMUP warm-up references (default = SLIP_BENCH_REFS)
 *   SLIP_RUN_THREADS  intra-run pipeline threads per simulation
 *                     (default 1 = serial; results are byte-identical
 *                     for any value, so it is not part of cache keys)
 */

#ifndef SLIP_SWEEP_RUN_SPEC_HH
#define SLIP_SWEEP_RUN_SPEC_HH

#include <cstdint>
#include <string>

#include "sim/policy_kind.hh"
#include "sim/system.hh"

namespace slip {

/**
 * Version prefix of every sweep cache key. Bump whenever the RunResult
 * serialization changes shape or the key format changes so stale
 * on-disk entries are retired instead of parsed into partially-zero
 * results.
 */
constexpr const char *kCacheKeyVersion = "v10";
// v10: hierarchy keys fold in the sharing topology (slice count and
// coherence flag per level), RunResult stats gained the coherence
// cause bin (.ec10), and shared-LLC runs extract slice-combined LLC
// stats instead of slice 0's.

/** Sweep configuration shared by the experiment harnesses. */
struct SweepOptions
{
    std::uint64_t refs;
    std::uint64_t warmup;
    /**
     * The simulated system. The RunSpec owns the policy and the core
     * count: executeRun overwrites both. key() names every other field
     * that can change a result. runThreads (stats are byte-identical
     * for any thread count; see System::runWindowPipelined) and
     * epochIntervalRefs (observation only) never do, so they stay out
     * of it. An empty hierarchy keys as the classic layout, so a
     * scenario spelling out Table 1 and a programmatic config share a
     * cache entry.
     */
    SystemConfig config;

    SweepOptions();  // reads the environment knobs

    /**
     * Stable string identifying this configuration (cache key part).
     * Fatal on a config it cannot name (tech parameters edited away
     * from their preset) rather than alias another run's entry.
     */
    std::string key() const;
};

/** One independent simulation of the sweep. */
struct RunSpec
{
    /** Benchmark name; for mixes, core 0's benchmark. */
    std::string benchmark;
    /** Core 1's benchmark for a two-core mix; empty for single-core. */
    std::string benchmarkB;
    /**
     * Core count for a replicated run: `benchmark` on every core with
     * per-core address offsets (the scenario `cores` semantic). 0 for
     * the legacy shapes — single (1 core) and mix (2 cores) — whose
     * keys predate this field and must not change.
     */
    unsigned cores = 0;
    PolicyKind policy = PolicyKind::Baseline;
    SweepOptions opts;

    bool isMix() const { return !benchmarkB.empty(); }
    bool isReplicated() const { return cores > 0; }
    unsigned numCores() const
    {
        return cores > 0 ? cores : (isMix() ? 2u : 1u);
    }

    static RunSpec single(std::string benchmark, PolicyKind policy,
                          const SweepOptions &opts);
    static RunSpec mix(std::string a, std::string b, PolicyKind policy,
                       const SweepOptions &opts);
    /** @p benchmark replicated across @p cores cores (cores >= 1). */
    static RunSpec replicated(std::string benchmark, unsigned cores,
                              PolicyKind policy,
                              const SweepOptions &opts);

    /** Unique cache key (also the on-disk cache file name). */
    std::string key() const;

    /** Short human-readable label for progress output. */
    std::string label() const;
};

} // namespace slip

#endif // SLIP_SWEEP_RUN_SPEC_HH
