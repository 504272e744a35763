/**
 * @file
 * LevelController: the insertion/movement policy of one cache level.
 *
 * CacheLevel provides the mechanisms (lookup, victim choice, install,
 * move, evict); a LevelController decides *where* lines go. Concrete
 * controllers: BaselineController (plain LRU cache), SlipController
 * (src/slip), NuRapidController and LruPeaController (src/nuca).
 */

#ifndef SLIP_CACHE_LEVEL_CONTROLLER_HH
#define SLIP_CACHE_LEVEL_CONTROLLER_HH

#include <memory>
#include <vector>

#include "cache/cache_level.hh"

namespace slip {

/**
 * Per-page context derived from the TLB/PTE, delivered with every
 * lower-level access (Section 4.3): the page's SLIP codes for both
 * levels and whether the page is currently in the sampling state.
 */
struct PageCtx
{
    Addr page = 0;
    PolicyPair policies;     ///< 6 b of PTE SLIP codes
    /** Collect reuse distances for this access (page is sampling). */
    bool collectRd = false;
    /**
     * Insert with the Default SLIP regardless of the stored policy.
     * Under time-based sampling this tracks collectRd; the
     * always-sample ablation collects while applying stored policies.
     */
    bool useDefault = false;
};

/** Outcome of a level access. */
struct AccessResult
{
    bool hit = false;
    Cycles latency = 0;   ///< service latency of the hit way
    int rdBin = -1;       ///< reuse-distance bin when sampled, else -1
};

/** Policy layer above one CacheLevel. */
class LevelController
{
  public:
    /**
     * @param level     the storage this controller manages
     * @param level_idx which SLIP policy slot applies (kSlipL2/kSlipL3)
     */
    LevelController(CacheLevel &level, unsigned level_idx)
        : _level(level), _idx(level_idx)
    {}

    virtual ~LevelController() = default;

    virtual const char *name() const = 0;

    CacheLevel &level() { return _level; }
    const CacheLevel &level() const { return _level; }

    /**
     * One access to this level. On a hit the controller performs all
     * bookkeeping (replacement touch, energy, optional promotion for
     * NUCA policies) and reports the reuse-distance bin when the page
     * is sampling. On a miss only the lookup is accounted; the caller
     * fetches the line from below and calls fill().
     */
    virtual AccessResult access(Addr line, bool is_write,
                                const PageCtx &page, AccessClass cls);

    /**
     * Install a line arriving from the next level (demand fill) or
     * from the level above (writeback that missed here). May bypass.
     * Displaced/evicted lines are appended to @p out; dirty ones must
     * be forwarded to the next level by the caller. When the fill is
     * bypassed and @p dirty holds, the line itself is appended to
     * @p out so the caller forwards it downward.
     *
     * @return true when the line now resides in this level
     */
    virtual bool fill(Addr line, bool dirty, const PageCtx &page,
                      std::vector<Eviction> &out) = 0;

  protected:
    CacheLevel &_level;
    unsigned _idx;
};

/** The regular cache hierarchy of the paper's baseline: LRU over all
 *  ways, every fill inserted, no movements, no SLIP metadata. */
class BaselineController : public LevelController
{
  public:
    using LevelController::LevelController;

    const char *name() const override { return "baseline"; }

    bool fill(Addr line, bool dirty, const PageCtx &page,
              std::vector<Eviction> &out) override;
};

} // namespace slip

#endif // SLIP_CACHE_LEVEL_CONTROLLER_HH
