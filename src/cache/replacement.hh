/**
 * @file
 * Replacement-policy selection for a cache level.
 *
 * SLIP is orthogonal to replacement (Section 3.1): the underlying policy
 * only answers "which line in this way mask should be displaced?". The
 * evaluation uses LRU; an RRIP-family policy (Section 7's DRRIP
 * adaptation) and a random policy are provided as well. CacheLevel
 * owns the per-way replacement state in packed arrays and implements
 * all three victim searches (cache/cache_level.hh).
 */

#ifndef SLIP_CACHE_REPLACEMENT_HH
#define SLIP_CACHE_REPLACEMENT_HH

#include <string>

namespace slip {

/** Which replacement family a cache level uses. */
enum class ReplKind {
    Lru,     ///< exact least-recently-used (the paper's evaluation)
    Rrip,    ///< SRRIP-style re-reference interval prediction (§7)
    Random,  ///< random victim (sanity baseline)
};

/** Canonical CLI/scenario key ("lru", "rrip", "random"). */
const char *replCliName(ReplKind kind);

/** Parse a CLI/scenario replacement key; false on unknown names. */
bool parseReplKind(const std::string &v, ReplKind &out);

} // namespace slip

#endif // SLIP_CACHE_REPLACEMENT_HH
