/**
 * @file
 * One set-associative cache level with energy-asymmetric ways.
 *
 * CacheLevel owns the storage arrays, tag lookup, replacement state,
 * per-way energy accounting (through CacheTopology), the per-level
 * access counter T and 6 b line timestamps TL used for online
 * reuse-distance measurement (Section 4.1), the movement queue, and all
 * per-level statistics the experiments consume.
 *
 * Insertion/movement *policy* lives outside, in a LevelController
 * (baseline LRU, SLIP, NuRAPID, LRU-PEA); CacheLevel provides the
 * mechanism primitives those controllers compose: chooseVictim over a
 * way mask, installLine, moveLine, evictLine.
 */

#ifndef SLIP_CACHE_CACHE_LEVEL_HH
#define SLIP_CACHE_CACHE_LEVEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/line.hh"
#include "cache/movement_queue.hh"
#include "cache/replacement.hh"
#include "energy/topology.hh"
#include "mem/types.hh"
#include "obs/energy_ledger.hh"
#include "obs/metrics.hh"
#include "util/bitops.hh"
#include "util/check.hh"
#include "util/random.hh"

namespace slip {

/** Demand traffic vs. SLIP metadata traffic (Figure 12 split). */
enum class AccessClass : std::uint8_t { Demand, Metadata };

/** Energy bookkeeping categories (Figure 11 splits access/movement). */
enum class EnergyCat : std::uint8_t {
    Access,    ///< data reads serviced from a way on a hit
    Movement,  ///< inter-sublevel moves + insertions + writeback reads
    Metadata,  ///< 12 b policy/timestamp accesses
    Other,     ///< movement-queue lookups, EOU operations
    NumCats,
};

/** Classification of insertions by assigned SLIP (Figure 14). */
enum class InsertClass : std::uint8_t {
    AllBypass,      ///< the ABP ({})
    PartialBypass,  ///< bypasses one or more sublevels
    Default,        ///< single chunk of all sublevels
    Other,          ///< no bypassing, more than one chunk
    NumClasses,
};

/** Static configuration of one cache level. */
struct CacheLevelConfig
{
    std::string name = "L2";
    std::uint64_t sizeBytes = 256 * 1024;
    unsigned ways = 16;
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    LevelEnergyParams energy;
    std::array<unsigned, kNumSublevels> sublevelWays = {4, 4, 8};
    unsigned waysPerRow = 4;
    /**
     * Low line-address bits consumed by slice interleaving before set
     * selection. A slice of an S-way-interleaved shared level gets
     * setShift = log2(S), so lines that map to it (line % S == slice)
     * spread over all of its sets; 0 for monolithic levels.
     */
    unsigned setShift = 0;
    ReplKind repl = ReplKind::Lru;
    unsigned timestampBits = 6;
    double movementQueuePj = 0.3;
    unsigned movementQueueEntries = 16;
    /** Baseline caches have no movement queue to probe. */
    bool movementQueueEnabled = true;
    /** Charge the 12 b SLIP metadata accesses (SLIP configs only). */
    bool slipMetadataEnabled = true;
    std::uint64_t seed = 1;
};

/** Result of a tag lookup. */
struct LookupResult
{
    bool hit = false;
    unsigned setIndex = 0;
    unsigned way = 0;
};

/** A line leaving the level (for the next level / DRAM). */
struct Eviction
{
    Addr lineAddr = 0;
    bool dirty = false;
    PolicyPair policies;
};

/** Aggregated per-level statistics. */
struct CacheLevelStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t metadataAccesses = 0;
    std::uint64_t metadataHits = 0;

    std::array<std::uint64_t, kNumSublevels> sublevelHits{};

    std::uint64_t insertions = 0;
    std::uint64_t bypasses = 0;
    std::array<std::uint64_t, kNumSublevels> sublevelInsertions{};
    std::array<std::uint64_t,
               static_cast<unsigned>(InsertClass::NumClasses)>
        insertClass{};

    std::uint64_t movements = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;

    /** Lines evicted with 0 / 1 / 2 / >2 hits (Figure 1). */
    std::array<std::uint64_t, 4> reuseHistogram{};

    std::array<double, static_cast<unsigned>(EnergyCat::NumCats)>
        energyPj{};

    /**
     * Energy-attribution ledger: the same picojoules as energyPj,
     * re-binned by *cause* (demand hit, fill, move, writeback, ...).
     * Only accumulated while obs metrics are enabled, so the golden
     * energyPj totals never change; when collected over a whole run it
     * sums to totalEnergyPj() within FP tolerance (obs_test asserts).
     */
    obs::EnergyLedger causePj{};

    Cycles portBusyCycles = 0;

    std::uint64_t demandMisses() const
    {
        return demandAccesses - demandHits;
    }
    std::uint64_t missesTotal() const
    {
        return demandMisses() + (metadataAccesses - metadataHits);
    }
    double totalEnergyPj() const
    {
        double t = 0.0;
        for (auto e : energyPj)
            t += e;
        return t;
    }
};

/** The storage/mechanism model of one cache level. */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheLevelConfig &cfg);

    const std::string &name() const { return _cfg.name; }
    const CacheLevelConfig &config() const { return _cfg; }
    const CacheTopology &topology() const { return _topo; }

    unsigned numSets() const { return _sets; }
    unsigned numWays() const { return _cfg.ways; }
    std::uint64_t numLines() const
    {
        return std::uint64_t(_sets) * _cfg.ways;
    }

    /** Set index of a line address (set counts are powers of two). */
    unsigned setIndex(Addr line) const
    {
        return static_cast<unsigned>((line >> _cfg.setShift) &
                                     _setMask);
    }

    /** Mutable access to a line (controllers and tests). */
    CacheLine &lineAt(unsigned set, unsigned way)
    {
        return _lines[std::size_t(set) * _cfg.ways + way];
    }
    const CacheLine &lineAt(unsigned set, unsigned way) const
    {
        return _lines[std::size_t(set) * _cfg.ways + way];
    }

    /** Whether (set, way) holds a line, from the valid shadow. */
    bool isValid(unsigned set, unsigned way) const
    {
        return (_validMask[set] >> way) & 1;
    }

    /** Way mask of every way: sublevelMask(0, kNumSublevels), inline. */
    std::uint32_t allWaysMask() const
    {
        return _slMaskCum[kNumSublevels];
    }

    // ------------------------------------------------------------------
    // Lookup path
    // ------------------------------------------------------------------

    /**
     * Probe the tags for @p line. Counts the access, advances the level
     * timestamp T, and charges the movement-queue lookup. Does NOT
     * update replacement state or charge data energy — the controller
     * does that on a hit via recordHit().
     */
    LookupResult lookup(Addr line, AccessClass cls);

    /**
     * Tag probe with no side effects: a branch-free scan of the whole
     * set's packed shadow tags, keeping the lowest matching way.
     */
    LookupResult
    peek(Addr line) const
    {
        const unsigned ways = _cfg.ways;
        LookupResult res;
        res.setIndex = setIndex(line);
        const Addr *tags = &_tags[std::size_t(res.setIndex) * ways];
        // kNoTag never equals a simulated line, so invalid ways
        // cannot match.
        unsigned way = ways;
        for (unsigned w = ways; w-- > 0;) {
            if (tags[w] == line)
                way = w;
        }
        if (way < ways) {
            res.hit = true;
            res.way = way;
        }
        return res;
    }

    /**
     * Probe @p n line addresses with no side effects, writing one
     * LookupResult each into @p out: peek() over a chunk of
     * references. The simulator itself looks every reference up
     * through lookup(); the only caller is perfbench's
     * cache.l1.peek_batch_ns_per_ref replay (perfbench/harness.cc).
     */
    void peekBatch(const Addr *lines, std::size_t n,
                   LookupResult *out) const;

    /**
     * Account a hit serviced from @p way: replacement touch, hit
     * counters (incl. per-sublevel), data access energy, metadata
     * (TL/policy) energy when @p update_metadata.
     * @return service latency of the way, in cycles
     */
    Cycles recordHit(unsigned set, unsigned way, bool is_write,
                     AccessClass cls, bool update_metadata);

    // ------------------------------------------------------------------
    // Mechanism primitives for controllers
    // ------------------------------------------------------------------

    /** Way mask covering sublevels [sl_begin, sl_end). */
    std::uint32_t sublevelMask(unsigned sl_begin, unsigned sl_end) const;

    /**
     * Choose a victim way among @p way_mask using the level's
     * replacement policy (invalid ways first, lowest way first).
     * @param prefer_demoted LRU-PEA's priority eviction of demoted
     *        lines: among demoted candidates, the least recently used
     *        on an LRU level, the highest-numbered otherwise
     */
    unsigned chooseVictim(unsigned set, std::uint32_t way_mask,
                          bool prefer_demoted = false);

    /**
     * Install @p line_addr into (set, way), which the controller must
     * have freed beforehand. Charges the insertion write (Movement
     * category), metadata copy energy, stamps TL, and classifies the
     * insertion for Figure 14.
     */
    void installLine(unsigned set, unsigned way, Addr line_addr,
                     bool dirty, PolicyPair policies, InsertClass cls);

    /**
     * Move the line at (set, from) into (set, to), which must be free.
     * Charges one read + one write (Movement), a movement-queue entry,
     * and blocks the port for the read+write latency.
     * @return stall cycles from movement-queue backpressure
     */
    Cycles moveLine(unsigned set, unsigned from, unsigned to);

    /**
     * Account a writeback arriving from the level above that hit at
     * (set, way): the line is updated in place. Charged as Movement
     * (writeback energy, Figure 11) and touches replacement recency
     * without counting a demand hit for the sublevel-fraction stats.
     * @return service latency of the way
     */
    Cycles recordWriteback(unsigned set, unsigned way);

    /**
     * Exchange the lines at (set, a) and (set, b) — the promotion
     * mechanism of NuRAPID/LRU-PEA (promote the hit line, demote the
     * displaced one). Both ways must hold valid lines. Charges two
     * reads and two writes (Movement), two movement-queue entries, and
     * blocks the port accordingly.
     * @return stall cycles from movement-queue backpressure
     */
    Cycles swapLines(unsigned set, unsigned a, unsigned b);

    /**
     * Remove the line at (set, way) from the level. Charges the
     * writeback read when dirty and records the reuse histogram.
     * @return the eviction record for the next level
     */
    Eviction evictLine(unsigned set, unsigned way);

    /** All in-flight movements for the current access retired. */
    void drainMovements() { _mq.drainAll(); }

    /**
     * Invalidate @p line if present (coherence path). Probes the
     * movement queue, records stats.
     * @param was_dirty receives the invalidated copy's dirtiness
     * @return true when found
     */
    bool invalidate(Addr line, bool *was_dirty = nullptr);

    // ------------------------------------------------------------------
    // Reuse-distance support (Section 4.1)
    // ------------------------------------------------------------------

    /** Current access count T, already wrapped to [0, 4C). */
    std::uint64_t timeNow() const { return _time; }

    /** Current 6 b timestamp (the TL value stored on insert/hit). */
    std::uint8_t tlNow() const
    {
        return static_cast<std::uint8_t>((_time >> _tlShift) &
                                         mask(_cfg.timestampBits));
    }

    /** Estimated reuse distance (in accesses) of a line stamped @p tl. */
    std::uint64_t reuseDistance(std::uint8_t tl) const;

    /** Cumulative capacity of sublevels [0, sl] in lines. */
    std::uint64_t sublevelCumLines(unsigned sl) const;

    /**
     * Reuse-distance bin of @p rd: bin i when rd fits in the first i+1
     * sublevels, bin kNumSublevels when it exceeds the level.
     */
    unsigned rdBin(std::uint64_t rd) const;

    // ------------------------------------------------------------------
    // Energy / stats
    // ------------------------------------------------------------------

    /**
     * Charge @p pj to category @p cat, attributed to @p cause in the
     * energy ledger (ledger accumulation is gated on obs metrics so
     * the disabled hot path only pays a relaxed load + branch).
     */
    void
    chargeEnergy(EnergyCat cat, obs::EnergyCause cause, double pj)
    {
        // Golden accumulators are monotone; a negative charge would
        // silently desynchronize them from the epoch-series deltas.
        SLIP_CHECK_MSG(pj >= 0.0 && pj == pj,
                       "negative or NaN energy charge (%f pJ)", pj);
        _stats.energyPj[static_cast<unsigned>(cat)] += pj;
        if (obs::metricsEnabled())
            obs::ledgerAdd(_stats.causePj, cause, pj);
    }

    /** Charge one 12 b metadata access (tag/metadata array probe). */
    void
    chargeMetadata()
    {
        chargeEnergy(EnergyCat::Metadata, obs::EnergyCause::TagMeta,
                     _topo.metadataEnergy());
    }

    const CacheLevelStats &stats() const { return _stats; }
    CacheLevelStats &stats() { return _stats; }
    const MovementQueue &movementQueue() const { return _mq; }

    /** Reset statistics (end of warm-up) without touching contents. */
    void resetStats();

    /** Invariant check: every valid line's tag maps to its set. */
    void checkInvariants() const;

  private:
    /** Replacement update for a referenced line (hit, writeback). */
    void touchRepl(unsigned set, unsigned way);
    /** Replacement update for a line installed or moved into a way. */
    void insertRepl(unsigned set, unsigned way);

    unsigned lruVictim(unsigned set, std::uint32_t way_mask) const;
    unsigned rripVictim(unsigned set, std::uint32_t way_mask);
    unsigned randomVictim(std::uint32_t way_mask);

    /**
     * Shadow tag of an invalid way. No simulated line address can
     * reach it: demand lines are bounded by the workload ranges and
     * the metadata/PTE regions sit at fixed offsets far below 2^58
     * (installLine asserts this), so a tag probe needs no separate
     * validity test.
     */
    static constexpr Addr kNoTag = ~Addr{0};

    /** Keep the tag/valid shadows in sync for (set, way). */
    void
    syncShadow(unsigned set, unsigned way)
    {
        const CacheLine &ln = lineAt(set, way);
        _tags[std::size_t(set) * _cfg.ways + way] =
            ln.valid ? ln.tag : kNoTag;
        if (ln.valid)
            _validMask[set] |= 1u << way;
        else
            _validMask[set] &= ~(1u << way);
    }

    CacheLevelConfig _cfg;
    CacheTopology _topo;
    unsigned _sets;
    Addr _setMask;                ///< _sets - 1
    std::vector<CacheLine> _lines;

    // Tag-probe shadows of _lines: a packed tag array plus a per-set
    // valid bitmask, so peek() reads one contiguous 8-byte word per
    // way instead of striding over CacheLines. Tag/valid state
    // changes only in installLine / moveLine / swapLines / evictLine /
    // invalidate, which maintain these (checkInvariants verifies).
    std::vector<Addr> _tags;
    std::vector<std::uint32_t> _validMask;

    // Replacement state, packed [set*ways+way] like _tags and sized
    // only for the level's own policy. LRU stamps come from one
    // per-level clock that every install, move, swap, hit and
    // writeback advances, so the stamps of valid ways are unique.
    // State of an invalid way is stale and never read: an invalid way
    // in the mask wins before any policy looks at state.
    std::vector<std::uint64_t> _lruStamp;  ///< LRU recency stamps
    std::vector<std::uint8_t> _rrpv;       ///< RRIP RRPVs
    std::uint64_t _lruClock = 0;
    Random _replRng;  ///< RRIP insertion / random victim draws

    MovementQueue _mq;

    std::uint64_t _time = 0;      ///< per-level access counter T
    std::uint64_t _timeWrap;      ///< 4C (a power of two)
    unsigned _tlShift;            ///< MSB extraction shift for TL

    /** sublevelMask(0, sl) for sl in [0, kNumSublevels]. */
    std::array<std::uint32_t, kNumSublevels + 1> _slMaskCum{};
    /** sublevelCumLines(sl) for each sublevel. */
    std::array<std::uint64_t, kNumSublevels> _slCumLines{};

    // Registry instruments resolved once at construction (named by the
    // level tag: "l2.insertions", ...). Only the fill/movement paths
    // are instrumented — never the per-access lookup/hit path — so the
    // disabled cost stays well under the 2% overhead budget.
    obs::Counter *_ctrInsertions;
    obs::Counter *_ctrMovements;
    obs::Counter *_ctrWritebacks;
    obs::Counter *_ctrInvalidations;

    CacheLevelStats _stats;
};

} // namespace slip

#endif // SLIP_CACHE_CACHE_LEVEL_HH
