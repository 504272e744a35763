/**
 * @file
 * The five cache-management configurations evaluated in the paper.
 */

#ifndef SLIP_SIM_POLICY_KIND_HH
#define SLIP_SIM_POLICY_KIND_HH

#include <string>

namespace slip {

/** Which insertion/movement policy manages the L2 and L3. */
enum class PolicyKind {
    Baseline,  ///< regular LRU cache hierarchy
    NuRapid,   ///< NuRAPID distance-associative NUCA
    LruPea,    ///< LRU with Priority Eviction Approach
    Slip,      ///< SLIP without the all-bypass policy
    SlipAbp,   ///< SLIP with ABP in the candidate pool
};

/** Short display name. */
inline const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Baseline:
        return "Baseline";
      case PolicyKind::NuRapid:
        return "NuRAPID";
      case PolicyKind::LruPea:
        return "LRU-PEA";
      case PolicyKind::Slip:
        return "SLIP";
      case PolicyKind::SlipAbp:
        return "SLIP+ABP";
    }
    return "?";
}

/** True for the two SLIP configurations. */
inline bool
isSlipPolicy(PolicyKind kind)
{
    return kind == PolicyKind::Slip || kind == PolicyKind::SlipAbp;
}

/**
 * Canonical CLI/scenario key ("baseline", "slip+abp", ...).
 * Distinct from policyName(), the figure-label display form.
 */
inline const char *
policyCliName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Baseline:
        return "baseline";
      case PolicyKind::NuRapid:
        return "nurapid";
      case PolicyKind::LruPea:
        return "lru-pea";
      case PolicyKind::Slip:
        return "slip";
      case PolicyKind::SlipAbp:
        return "slip+abp";
    }
    return "?";
}

/**
 * Parse a policy key as written on a command line or in a scenario
 * file. Accepts the canonical keys plus historical aliases
 * ("lrupea", "slip-abp"). Returns false on unknown names.
 */
inline bool
parsePolicyKind(const std::string &v, PolicyKind &out)
{
    if (v == "baseline")
        out = PolicyKind::Baseline;
    else if (v == "nurapid")
        out = PolicyKind::NuRapid;
    else if (v == "lru-pea" || v == "lrupea")
        out = PolicyKind::LruPea;
    else if (v == "slip")
        out = PolicyKind::Slip;
    else if (v == "slip+abp" || v == "slip-abp")
        out = PolicyKind::SlipAbp;
    else
        return false;
    return true;
}

} // namespace slip

#endif // SLIP_SIM_POLICY_KIND_HH
