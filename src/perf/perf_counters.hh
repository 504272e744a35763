/**
 * @file
 * Scoped wall-clock counters for the simulator's own hot phases.
 *
 * The per-access simulation loop is the wall-clock bottleneck of the
 * whole evaluation (every figure is a sweep of System::run calls), so
 * regressions there must be visible in-tree. This subsystem provides
 * per-phase accounting — workload generation, TLB/page-walk handling,
 * reuse-distance profiling, the demand cache walk, and EOU policy
 * optimization — surfaced through `slip-bench --profile FILE`, which
 * dumps the aggregated counters as JSON (schema in EXPERIMENTS.md).
 *
 * Profiling is disabled by default and costs one relaxed atomic load
 * per instrumented scope; when enabled, each scope adds two monotonic
 * clock reads (obs/telemetry.hh), so the numbers are indicative phase
 * *shares*, not absolute simulator speed. Counters are global relaxed atomics:
 * sweep worker threads accumulate into the same totals, so a profiled
 * sweep reports the aggregate across all runs.
 *
 * Phases nest (Eou inside Tlb, RdProfile inside CacheWalk): each
 * phase's time is inclusive of its children, and only `Run` covers a
 * whole System::run, so shares should be read against `Run`.
 */

#ifndef SLIP_PERF_PERF_COUNTERS_HH
#define SLIP_PERF_PERF_COUNTERS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "obs/telemetry.hh"
#include "util/json.hh"

namespace slip {
namespace perf {

/** The instrumented phases of the per-access simulation loop. */
enum class Phase : unsigned {
    WorkloadGen,  ///< chunked AccessSource::nextBatch pulls
    Tlb,          ///< System::tlbMiss: walk, sampling, metadata, EOU
    RdProfile,    ///< reuse-distance recording into the metadata store
    CacheWalk,    ///< the L1→L2→L3→DRAM demand path incl. fills
    Eou,          ///< EOU policy optimizations (nested inside Tlb)
    // Pipelined-run stages (--run-threads > 1; DESIGN.md §Intra-run
    // parallelism). Front/shared busy time accumulates across all
    // worker threads, so shares can exceed 1.0 of Run on purpose —
    // read them against each other to spot pipeline imbalance.
    FrontEnd,     ///< front-end workers: per-core TLB/private-level work
    QueueFull,    ///< producers blocked on a full SPSC queue
    QueueEmpty,   ///< the merge stage blocked on an empty SPSC queue
    SharedStage,  ///< merge stage executing shared-level accesses
    Run,          ///< whole System::run invocations (the denominator)
    NumPhases,
};

constexpr unsigned kNumPhases =
    static_cast<unsigned>(Phase::NumPhases);

/** Stable lower-case identifier used as the JSON key. */
const char *phaseName(Phase p);

/** Aggregated totals (a consistent-enough relaxed snapshot). */
struct PhaseTotals
{
    std::array<std::uint64_t, kNumPhases> ns{};
    std::array<std::uint64_t, kNumPhases> calls{};
};

/** Globally enable/disable the scoped timers. */
void setEnabled(bool on);
bool enabled();

/** Zero all counters. */
void reset();

/** Current totals across all threads. */
PhaseTotals snapshot();

/** Accumulate @p ns nanoseconds and one call into @p p directly. */
void record(Phase p, std::uint64_t ns);

/**
 * Enter/leave @p p on this thread (ScopedPhase plumbing). enterPhase
 * returns true only for the outermost scope of a phase, so recursive
 * or nested same-phase scopes never double-count.
 */
bool enterPhase(Phase p);
void exitPhase(Phase p);

/** The counters as a JSON value (schema documented at writeJson). */
json::Value toJson(const PhaseTotals &t);

/**
 * Write the counters as a JSON object:
 *
 *   {"enabled": true,
 *    "phases": {"<name>": {"ns": N, "calls": N, "share_of_run": F},
 *               ...},
 *    "accounted_ns": N, "run_ns": N}
 *
 * share_of_run is phase ns / run ns (0 when run is unmeasured);
 * accounted_ns sums the non-overlapping top-level phases
 * (workload_gen + tlb + cache_walk) for a coverage sanity check.
 */
void writeJson(std::ostream &os, const PhaseTotals &t);

/**
 * RAII phase scope. Construction/destruction cost one relaxed load
 * when profiling is off.
 *
 * Exception-safe (time is recorded on unwind like any destructor) and
 * re-entrancy-safe: a per-thread depth counter means nested scopes of
 * the SAME phase record only at the outermost level, so recursive
 * instrumented code does not double-count its own time.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase p) : _phase(p), _entered(enabled())
    {
        if (_entered) {
            _outermost = enterPhase(p);
            if (_outermost)
                _t0 = obs::monotonicNowNs();
        }
    }

    ~ScopedPhase()
    {
        if (_entered) {
            if (_outermost)
                record(_phase, obs::monotonicNowNs() - _t0);
            exitPhase(_phase);
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase _phase;
    bool _entered;
    bool _outermost = false;
    std::uint64_t _t0 = 0;
};

/** The observability-facing name of the RAII scope. */
using Scope = ScopedPhase;

} // namespace perf
} // namespace slip

#endif // SLIP_PERF_PERF_COUNTERS_HH
