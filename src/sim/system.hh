/**
 * @file
 * The full-system model: N cores, each with a TLB and the private
 * levels of a composable cache hierarchy (HierarchySpec), sharing
 * the non-private levels and DRAM; page table, per-page
 * reuse-distance metadata, time-based sampling, and the EOU — the
 * complete Figure 7 machinery — plus an analytic out-of-order timing
 * model.
 *
 * The hierarchy is data, not code: SystemConfig::hierarchy names an
 * ordered vector of LevelSpecs (empty selects the paper's Table 1
 * three-level layout) and every level is built from the same path —
 * a CacheLevel per unit plus a policy controller resolved from the
 * string-keyed registry (sim/policy_registry.hh). SLIP-managed
 * levels are assigned reuse-distance slots in order; the EOU/RD
 * machinery attaches to whichever levels carry a SLIP policy.
 *
 * The simulator is trace driven: workload generators (src/workloads)
 * produce address streams; System::run interleaves them round-robin
 * across cores and accounts energy, traffic, and time.
 */

#ifndef SLIP_SIM_SYSTEM_HH
#define SLIP_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/cache_level.hh"
#include "cache/level_controller.hh"
#include "dram/dram_model.hh"
#include "energy/energy_params.hh"
#include "mem/trace.hh"
#include "obs/epoch_series.hh"
#include "rd/metadata_store.hh"
#include "rd/sampling.hh"
#include "sim/hierarchy.hh"
#include "sim/pipeline.hh"
#include "sim/policy_kind.hh"
#include "slip/eou.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"
#include "util/flat_map.hh"

namespace slip {

/** How page reuse statistics are collected. */
enum class SamplingMode {
    TimeBased,  ///< Section 4.2 (Nsamp/Nstab state machine)
    Always,     ///< pre-sampling design: fetch + optimize on every
                ///< TLB miss (the Section 4.1 traffic problem)
};

/** Complete configuration of a simulated system. */
struct SystemConfig
{
    PolicyKind policy = PolicyKind::Baseline;
    TechParams tech;  ///< defaults to tech45nm() in the ctor
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    ReplKind repl = ReplKind::Lru;
    /** Section 7 randomized-sublevel victim choice (use with Rrip). */
    bool randomSublevelVictim = false;
    /**
     * Inclusive LLC (Section 4.3's coherence simplification): lines
     * leaving the last level back-invalidate upper-level copies, and
     * the All-Bypass Policy is withheld from that level's EOU pool —
     * a bypassed line could not exist in the upper levels. Levels
     * with an explicit LevelSpec::inclusive override ignore this.
     */
    bool inclusiveL3 = false;

    unsigned numCores = 1;

    /**
     * Cache hierarchy layout, innermost level first. Empty (the
     * default) selects HierarchySpec::classic(), the paper's Table 1
     * geometry; inherit markers in the spec resolve against the
     * system-wide policy/topology/repl/inclusiveL3 knobs above.
     */
    HierarchySpec hierarchy;

    // Reuse-distance machinery.
    unsigned rdBinBits = 4;
    SamplingMode samplingMode = SamplingMode::TimeBased;
    bool eouIncludeInsertion = true;
    /**
     * Pages per reuse-distance block (Section 7: the rd-block need not
     * equal the page). Distributions and SLIPs are kept per rd-block;
     * values > 1 cut metadata storage and speed convergence at the
     * cost of coarser policies.
     */
    unsigned rdBlockPages = 1;

    // Fixed model parameters. No configuration varies them; they are
    // members so a config reads them by name like its other fields.

    /** Time-based sampling (Section 4.2): on a TLB miss a sampling
     * page turns stable with probability 1/nsamp, a stable page
     * resumes sampling with probability 1/nstab. */
    static constexpr unsigned nsamp = 16;
    static constexpr unsigned nstab = 256;
    /** Entries of each core's TLB. */
    static constexpr unsigned tlbEntries = 64;
    /**
     * References between full TLB flushes, modelling OS timer ticks /
     * context switches in the paper's full-system runs. Without this,
     * pages hot enough to stay TLB-resident would never make a
     * sampling-state transition and never receive a SLIP.
     */
    static constexpr std::uint64_t contextSwitchInterval = 50'000;

    // Timing / instruction-stream model. Workload generators emit the
    // post-L1-filter reference stream (DESIGN.md §1): each simulated
    // reference statistically stands for (1 + l1HitsPerMiss) L1
    // accesses and instrPerAccess retired instructions.
    static constexpr unsigned issueWidth = 4;
    static constexpr double instrPerAccess = 30.0;
    /** Synthetic L1 hits represented by each simulated reference. */
    static constexpr double l1HitsPerMiss = 9.0;
    /** Fraction of memory latency exposed as stall (OoO overlap). */
    static constexpr double stallFactor = 0.35;
    /** Fraction of movement port-busy time exposed as stall. */
    static constexpr double portContentionFactor = 0.01;

    /**
     * References (across all cores) per observability epoch; at each
     * rollover the per-cause energy ledger delta is recorded into the
     * attached epoch sink and an epoch_rollover trace event is
     * emitted. 0 (the default) disables epoch accounting entirely.
     * Deliberately excluded from sweep cache keys: observation never
     * changes simulation outcomes.
     */
    std::uint64_t epochIntervalRefs = 0;

    /**
     * Worker threads for one System::run (1 = classic serial loop).
     * With N > 1, each core's front-end (workload generation, TLB,
     * and — when the layout allows — the private cache levels) runs
     * on one of N-1 worker threads feeding the shared-level stage on
     * the calling thread through bounded SPSC queues; a deterministic
     * round-robin merge keeps the result byte-identical to serial for
     * any value (DESIGN.md §Intra-run parallelism). Like
     * epochIntervalRefs, deliberately excluded from sweep cache keys:
     * the thread count never changes simulation outcomes.
     */
    unsigned runThreads = 1;

    std::uint64_t seed = 1;

    SystemConfig();
};

/** Per-core aggregate results. */
struct CoreStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    double memStallCycles = 0.0;
    /** References since the last modelled context switch. */
    std::uint64_t accessesSinceSwitch = 0;
};

/** The simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    const SystemConfig &config() const { return _cfg; }

    /**
     * Simulate @p accesses_per_core references per core, round-robin
     * interleaved, after a warm-up of @p warmup_per_core references
     * (statistics are reset at the warm-up boundary; cache contents
     * are kept).
     *
     * @param sources one AccessSource per core
     */
    void run(const std::vector<AccessSource *> &sources,
             std::uint64_t accesses_per_core,
             std::uint64_t warmup_per_core = 0);

    /** Issue a single reference on @p core (tests drive this). */
    void access(unsigned core, const MemAccess &acc);

    // ------------------------------------------------------------------
    // Hierarchy introspection
    // ------------------------------------------------------------------

    unsigned numLevels() const
    {
        return static_cast<unsigned>(_levels.size());
    }
    const std::string &levelName(unsigned i) const
    {
        return _levels[i].spec.name;
    }
    bool levelShared(unsigned i) const { return _levels[i].spec.shared; }
    unsigned levelSlices(unsigned i) const
    {
        return _levels[i].spec.slices;
    }

    /** Units backing level @p i (numCores private, slices shared). */
    unsigned levelUnits(unsigned i) const
    {
        return static_cast<unsigned>(_levels[i].units.size());
    }
    const CacheLevel &levelUnit(unsigned i, unsigned u) const
    {
        return *_levels[i].units[u];
    }

    /** The unit serving @p core at level @p i (shared levels return
     * unit 0 — their only unit unless sliced; address-interleaved
     * slices are selected per line inside the access paths). */
    CacheLevel &level(unsigned i, unsigned core)
    {
        Level &l = _levels[i];
        return *l.units[l.spec.shared ? 0 : core];
    }
    const CacheLevel &level(unsigned i, unsigned core) const
    {
        const Level &l = _levels[i];
        return *l.units[l.spec.shared ? 0 : core];
    }

    /** Stats of level @p i summed over its units. */
    CacheLevelStats combinedLevelStats(unsigned i) const;

    /** Total dynamic energy of level @p i across units, pJ. */
    double levelEnergyPj(unsigned i) const;

    /** Per-cause ledger of level @p i summed over units. */
    obs::EnergyLedger levelLedger(unsigned i) const;

    /** SLIP-managed levels (each holds one RD slot, in order). */
    unsigned numSlipSlots() const
    {
        return static_cast<unsigned>(_slipLevels.size());
    }
    unsigned slipLevel(unsigned slot) const { return _slipLevels[slot]; }

    /** The optimizer unit of RD slot @p slot (null if none). */
    const Eou *eou(unsigned slot) const
    {
        return slot < _eous.size() ? _eous[slot].get() : nullptr;
    }

    // ------------------------------------------------------------------
    // Results (classic accessors: level 0 / level 1 / last level)
    // ------------------------------------------------------------------

    CacheLevel &l1(unsigned core) { return level(0, core); }
    CacheLevel &l2(unsigned core) { return level(1, core); }
    CacheLevel &l3() { return level(numLevels() - 1, 0); }
    const DramModel &dram() const { return _dram; }
    DramModel &dram() { return _dram; }
    Tlb &tlb(unsigned core) { return _cores[core]->tlb; }
    PageTable &pageTable() { return _pageTable; }
    MetadataStore &metadataStore() { return _metadata; }
    unsigned numCores() const { return _cfg.numCores; }

    const CoreStats &coreStats(unsigned core) const
    {
        return _cores[core]->stats;
    }

    /** Level-1 stats summed over cores (private L2s classically). */
    CacheLevelStats combinedL2Stats() const
    {
        return combinedLevelStats(1);
    }

    /** Total dynamic energy of one level across cores, pJ. */
    double l1EnergyPj() const { return levelEnergyPj(0); }
    double l2EnergyPj() const { return levelEnergyPj(1); }
    double l3EnergyPj() const
    {
        return levelEnergyPj(numLevels() - 1);
    }

    /** Core + all cache levels + DRAM dynamic energy (Figure 10). */
    double fullSystemEnergyPj() const;

    /** Retired instructions (accesses x instrPerAccess). */
    double instructions() const;

    /** Execution time of @p core under the analytic timing model. */
    double coreCycles(unsigned core) const;

    /** Slowest core's cycles (the run's execution time). */
    double totalCycles() const;

    /** EOU invocations across all SLIP-managed levels. */
    std::uint64_t eouOperations() const;

    // ------------------------------------------------------------------
    // Coherence-lite (per-line sharer directory on the one coherent
    // shared level; see DESIGN.md §5c). All zero when no level is
    // coherent.
    // ------------------------------------------------------------------

    bool coherenceEnabled() const { return _coherentLevel >= 0; }
    /** Demand writes that probed the sharer directory. */
    std::uint64_t coherenceWriteProbes() const
    {
        return _cohWriteProbes;
    }
    /** Private-level copies removed by write-invalidations. */
    std::uint64_t coherenceInvalidations() const
    {
        return _cohInvalidations;
    }
    /** Dirty invalidated copies folded into the coherent level. */
    std::uint64_t coherenceDirtyWritebacks() const
    {
        return _cohDirtyWritebacks;
    }

    /** The per-slot optimizer units (null for non-SLIP policies). */
    const Eou *eouL2() const
    {
        return _eous.empty() ? nullptr : _eous[0].get();
    }
    const Eou *eouL3() const
    {
        return _eous.size() < 2 ? nullptr : _eous[1].get();
    }

    /** Reset all statistics; cache/TLB/page-table contents persist. */
    void resetStats();

    /** Structural invariants of every level (tests). */
    void checkInvariants() const;

    // ------------------------------------------------------------------
    // Observability (src/obs): all no-ops unless explicitly attached.
    // ------------------------------------------------------------------

    /**
     * Collect per-epoch ledger deltas into @p sink (not owned; must
     * outlive the run). Requires cfg.epochIntervalRefs > 0 and obs
     * metrics enabled for the ledger itself to accumulate.
     */
    void setEpochSink(obs::EpochSeries *sink) { _epochSink = sink; }

    /** Trace pid identifying this run in flushed Chrome traces. */
    void setTracePid(std::uint64_t pid) { _tracePid = pid; }

    /** Logical access tick (trace timestamp domain). */
    std::uint64_t accessTick() const { return _accessTick; }

  private:
    struct Core
    {
        Tlb tlb;
        CoreStats stats;

        explicit Core(unsigned tlb_entries) : tlb(tlb_entries) {}
    };

    /** One hierarchy level: its resolved spec, one CacheLevel per
     * unit (numCores for private levels, 1 for shared), and the
     * policy controllers (parallel to units). */
    struct Level
    {
        ResolvedLevel spec;
        int slot = -1;  ///< RD slot when SLIP-managed, else -1
        bool abp = false;  ///< policy's EOU pool includes all-bypass
        std::vector<std::unique_ptr<CacheLevel>> units;
        std::vector<std::unique_ptr<LevelController>> ctrls;

        /** Unit serving core @p c for @p line: the core's unit on
         * private levels, the line's address-interleaved slice on
         * shared ones (slices == 1 collapses to unit 0). */
        unsigned
        unitIndex(unsigned c, Addr line) const
        {
            return spec.shared
                       ? static_cast<unsigned>(line & (spec.slices - 1))
                       : c;
        }
        CacheLevel &
        unit(unsigned c, Addr line)
        {
            return *units[unitIndex(c, line)];
        }
        const CacheLevel &
        unit(unsigned c, Addr line) const
        {
            return *units[unitIndex(c, line)];
        }
        LevelController &
        ctrl(unsigned c, Addr line)
        {
            return *ctrls[unitIndex(c, line)];
        }
    };

    /**
     * One thread's view of the hierarchy walk. Walks stop at level
     * @c bound: the calling thread's walker reaches DRAM (bound ==
     * numLevels()), a full-front worker's stops at _firstShared and
     * records what crosses the bound in @c capture for the merge
     * stage to resume (DESIGN.md §5b).
     */
    struct Walker
    {
        /** Per-level eviction scratch reused across accesses so the
         * hot path performs no allocation; always drained (and
         * cleared) before its level can fill again, so it never
         * nests. */
        std::vector<std::vector<Eviction>> evs;
        unsigned bound;
        /** Receives walks and writebacks that reach @c bound (only
         * dereferenced when bound < numLevels()). */
        pipe::FrontRef *capture = nullptr;

        explicit Walker(std::size_t nlevels = 0, unsigned b = 0)
            : evs(nlevels), bound(b) {}
    };

    /** One measurement window of run(): chunked pull + interleave. */
    void runWindow(const std::vector<AccessSource *> &sources,
                   std::uint64_t accesses_per_core);

    /** Front step of every executor: context switch, TLB lookup, and
     * on a miss the TLB insert, recorded in @p fr. */
    void frontStep(unsigned core_id, const MemAccess &acc,
                   pipe::FrontRef &fr);

    /** Everything after the front step, on the calling thread, from
     * level 0 (@p lo == 0) or — when a full-front worker already
     * walked the private levels — from level @p lo. */
    void accessImpl(unsigned core_id, pipe::FrontRef &fr, unsigned lo);

    /** TLB-miss work after the insert: page walk (resumed from
     * @p lo as in accessImpl), sampling transition, metadata fetch,
     * EOU, evicted-page writebacks. */
    Cycles tlbMiss(unsigned core_id, const pipe::FrontRef &fr,
                   unsigned lo);

    /** Level-0 access; on a miss the demand walk below it, the
     * fill, and the drain. */
    Cycles level0Step(Walker &w, unsigned core_id, pipe::FrontRef &fr,
                      const PageCtx &ctx);

    /**
     * Allocating read of @p line over levels [lo, w.bound) with fills
     * back up to @p lo: demand fetches, PTE walks and metadata reads.
     * Past the last level it reaches DRAM; missing every level below
     * a smaller bound sets @p cross in w.capture->flags instead.
     * @return service latency
     */
    Cycles readWalk(Walker &w, unsigned core_id, unsigned lo, Addr line,
                    const PageCtx &ctx, AccessClass cls,
                    std::uint16_t cross);

    /** Route a dirty line evicted from level @p i - 1 into level
     * @p i (non-allocating update when present, else a fill), or
     * capture it when @p i is at the walker's bound. */
    void writebackToLevel(Walker &w, unsigned i, unsigned core_id,
                          Addr line);

    /** Process level @p i's eviction list: back-invalidate upper
     * levels when inclusive, forward dirty lines downward. */
    void drainEvictions(Walker &w, unsigned i, unsigned core_id);

    /** Non-allocating metadata write (distribution and dirty-PTE
     * writebacks): update in place where cached, else DRAM. */
    Cycles metadataWrite(unsigned core_id, Addr line, AccessClass cls);

    // ------------------------------------------------------------------
    // Pipelined run (--run-threads > 1; DESIGN.md §Intra-run
    // parallelism). TLB-front mode works for every configuration;
    // full-front mode additionally runs the private levels on the
    // front-end threads when fullFrontEligible() holds.
    // ------------------------------------------------------------------

    /** Layout/feature gate for running private levels in the
     * front-end (see the implementation for the exact conditions). */
    bool fullFrontEligible() const;

    /** runWindow split into per-core front-ends + a merge stage. */
    void runWindowPipelined(const std::vector<AccessSource *> &sources,
                            std::uint64_t accesses_per_core,
                            unsigned nworkers, bool full_front);

    /** A full-front worker's share of one reference after the front
     * step: the private part of the PTE walk and the level-0 step. */
    void frontAccessFull(Walker &w, unsigned core_id,
                         pipe::FrontRef &fr);

    /** Merge-stage end of a walk a full-front worker started: the
     * walk from @p lo when the worker's crossed (@p cross in
     * fr.flags), then its captured writebacks fr.wb[begin, end). */
    Cycles resumeWalk(unsigned core_id, unsigned lo,
                      const pipe::FrontRef &fr, Addr line,
                      const PageCtx &ctx, std::uint16_t cross,
                      unsigned begin, unsigned end);

    /** Directory bookkeeping tail of a demand access: record @p
     * core_id as a sharer; on writes, first invalidate every other
     * sharer's private copies (write-invalidate). */
    void coherenceDemand(unsigned core_id, Addr line, bool is_write);

    /** Close the current epoch: record ledger deltas, emit the event. */
    void rollEpoch();

    /** rd-block of a page (Section 7 granularity extension). */
    Addr
    rdBlock(Addr page) const
    {
        return _rdBlockPages == 1 ? page : page / _rdBlockPages;
    }

    /** Page context for a demand access to @p page. */
    PageCtx pageCtx(Addr page);

    /** Record one reuse-distance observation for a page at a slot. */
    void recordRd(const PageCtx &ctx, int slot, int bin);

    SystemConfig _cfg;

    // Immutable-config values hoisted out of the per-access path.
    bool _isSlip = false;
    bool _samplingAlways;
    double _l1RefPj;         ///< l1HitsPerMiss * l1AccessPj
    unsigned _rdBlockPages;
    Cycles _l1Latency = 4;   ///< level 0 baseline latency

    /** First shared level index (== numLevels() when none is shared
     * or a private level sits below a shared one). */
    unsigned _firstShared = 0;

    // Coherence-lite state. The directory maps demand line addresses
    // to a sharer-core bitmask (numCores <= 64 enforced when a level
    // is coherent); mask 0 marks an entry whose line left the
    // coherent level. The mask is conservative — a core's bit stays
    // set after its private copies are silently evicted — so
    // invalidations may probe cores that no longer hold the line,
    // which only costs modelled energy.
    int _coherentLevel = -1;  ///< level index, -1 when none
    PageMap<std::uint64_t> _directory;
    std::uint64_t _cohWriteProbes = 0;
    std::uint64_t _cohInvalidations = 0;
    std::uint64_t _cohDirtyWritebacks = 0;

    std::vector<Level> _levels;  ///< [0] = innermost
    Walker _walker;  ///< the calling thread's, bound numLevels()
    std::vector<unsigned> _slipLevels;  ///< level index per RD slot
    std::vector<std::unique_ptr<Core>> _cores;
    /** The merge stage writes the DRAM counters on every DRAM access
     * while full-front workers read _cores and _defaultPolicies on
     * every reference: own cache line, or the two false-share. */
    alignas(64) DramModel _dram;

    /** SLIP codes of unseen pages and metadata lines: the Default
     * policy at both SLIP levels, computed once. */
    const PolicyPair _defaultPolicies;
    /** Context of metadata and PTE line walks: the Default SLIP. */
    PageCtx _metaCtx;
    PageTable _pageTable;
    MetadataStore _metadata;
    SamplingController _sampling;
    std::vector<std::unique_ptr<Eou>> _eous;  ///< one per RD slot

    // Observability state. When no sink/trace is configured the only
    // per-access cost is one increment and one zero test.
    std::uint64_t _accessTick = 0;     ///< monotonic over the System
    std::uint64_t _tracePid = 0;
    obs::EpochSeries *_epochSink = nullptr;
    std::uint64_t _epochAccesses = 0;  ///< refs since last rollover
    std::uint64_t _epochIndex = 0;
    // Totals at the last rollover, so each epoch records deltas.
    // One ledger/hit base per outer level (index 0 = level 1).
    std::vector<obs::EnergyLedger> _epochLvlBase;
    std::vector<std::uint64_t> _epochLvlHitsBase;
    double _epochL1Base = 0.0;
    double _epochDramBase = 0.0;
    std::uint64_t _epochEouBase = 0;
};

} // namespace slip

#endif // SLIP_SIM_SYSTEM_HH
