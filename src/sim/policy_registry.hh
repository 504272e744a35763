/**
 * @file
 * String-keyed table of level-management policies.
 *
 * Scenario files and LevelSpecs name their insertion/movement policy
 * by key ("baseline", "nurapid", "lru-pea", "slip", "slip+abp");
 * System resolves the key here instead of switching on PolicyKind,
 * so a new policy is one more table entry — no enum edits, no System
 * changes. Entries also carry the traits System needs to wire a
 * level: whether the policy consumes a reuse-distance slot (SLIP
 * family), whether its EOU pool includes the all-bypass candidate,
 * and whether the level needs a movement queue.
 */

#ifndef SLIP_SIM_POLICY_REGISTRY_HH
#define SLIP_SIM_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "cache/level_controller.hh"

namespace slip {

/** Construction context handed to controller factories. */
struct LevelPolicyArgs
{
    /** Section 7 randomized-sublevel victim choice (SLIP family). */
    bool randomSublevelVictim = false;
    /** The system seed; factories derive their own streams from it
     * (the classic derivations: SLIP seed*13+slot, LRU-PEA
     * seed*17+3). */
    std::uint64_t systemSeed = 1;
};

/** One policy of the table. */
struct LevelPolicyInfo
{
    std::string name;          ///< table key (canonical CLI form)
    bool slip = false;         ///< consumes an RD slot + EOU
    bool abp = false;          ///< EOU pool includes all-bypass
    bool movementQueue = false;  ///< level needs a movement queue
    /** Build the controller. @p slot is the level's RD slot (indexes
     * PolicyPair::code); non-SLIP policies receive the would-be slot
     * of their level for stable stream derivation. */
    std::function<std::unique_ptr<LevelController>(
        CacheLevel &, unsigned slot, const LevelPolicyArgs &)>
        make;
};

/**
 * Look up a policy by key (historical aliases like "slip-abp" are
 * normalized first). Returns nullptr for unknown keys; the pointer
 * stays valid for the process lifetime.
 */
const LevelPolicyInfo *findLevelPolicy(const std::string &name);

} // namespace slip

#endif // SLIP_SIM_POLICY_REGISTRY_HH
