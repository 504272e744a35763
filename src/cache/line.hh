/**
 * @file
 * Per-line metadata for a cache level.
 *
 * Beyond the usual tag/valid/dirty, each line carries the 12 b of SLIP
 * metadata the paper budgets (Section 4.3, Figure 7): the 3 b SLIP codes
 * for both lower levels (copied alongside the line so eviction decisions
 * never re-probe the TLB) and a 6 b insertion timestamp TL used for
 * online reuse-distance measurement. A spare byte holds LRU-PEA's
 * demoted flag. Replacement state (LRU stamps, RRIP RRPVs) is not kept
 * here: CacheLevel packs it into per-level [set*ways+way] arrays, so a
 * line is 16 bytes.
 */

#ifndef SLIP_CACHE_LINE_HH
#define SLIP_CACHE_LINE_HH

#include <cstdint>

#include "mem/types.hh"

namespace slip {

/** Index of the two SLIP-managed levels in per-line policy storage. */
enum SlipLevelIndex : unsigned { kSlipL2 = 0, kSlipL3 = 1 };

/** The pair of 3 b SLIP codes a line carries (L2 policy, L3 policy). */
struct PolicyPair
{
    std::uint8_t code[2] = {0, 0};

    bool
    operator==(const PolicyPair &o) const
    {
        return code[0] == o.code[0] && code[1] == o.code[1];
    }
};

/** One cache line's bookkeeping state. */
struct CacheLine
{
    Addr tag = 0;            ///< full line address (tag ∪ index)
    bool valid = false;
    bool dirty = false;

    PolicyPair policies;     ///< 6 b of SLIP codes (both levels)
    std::uint8_t tl = 0;     ///< 6 b insertion/last-access timestamp

    bool demoted = false;        ///< LRU-PEA priority-eviction flag

    /** Hits since insertion, saturating at 3: Figure 1 only tells
     * 0, 1, 2 and more than 2 hits apart. */
    std::uint8_t hitCount = 0;

    /** Clear everything (an invalidation). */
    void
    invalidate()
    {
        valid = false;
        dirty = false;
        tl = 0;
        demoted = false;
        hitCount = 0;
        policies = PolicyPair{};
    }
};

static_assert(sizeof(CacheLine) == 16,
              "CacheLine grew: its 16 bytes pay for CacheLevel's packed "
              "LRU stamps");

} // namespace slip

#endif // SLIP_CACHE_LINE_HH
