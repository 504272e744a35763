#include "sim/policy_registry.hh"

#include <vector>

#include "nuca/lru_pea.hh"
#include "nuca/nurapid.hh"
#include "sim/policy_kind.hh"
#include "slip/slip_controller.hh"

namespace slip {

namespace {

std::unique_ptr<LevelController>
makeSlip(CacheLevel &level, unsigned slot, const LevelPolicyArgs &args)
{
    return std::make_unique<SlipController>(level, slot,
                                            args.randomSublevelVictim,
                                            args.systemSeed * 13 + slot);
}

/** The built-in policies; immutable, so lookups need no lock. */
const std::vector<LevelPolicyInfo> &
policies()
{
    static const std::vector<LevelPolicyInfo> table = {
        {"baseline", false, false, false,
         [](CacheLevel &level, unsigned slot, const LevelPolicyArgs &) {
             return std::make_unique<BaselineController>(level, slot);
         }},
        {"nurapid", false, false, true,
         [](CacheLevel &level, unsigned slot, const LevelPolicyArgs &) {
             return std::make_unique<NuRapidController>(level, slot);
         }},
        {"lru-pea", false, false, true,
         [](CacheLevel &level, unsigned slot,
            const LevelPolicyArgs &args) {
             return std::make_unique<LruPeaController>(
                 level, slot, args.systemSeed * 17 + 3);
         }},
        {"slip", true, false, true, makeSlip},
        {"slip+abp", true, true, true, makeSlip},
    };
    return table;
}

} // namespace

const LevelPolicyInfo *
findLevelPolicy(const std::string &name)
{
    // Normalize historical aliases onto their canonical keys.
    std::string key = name;
    PolicyKind kind;
    if (parsePolicyKind(name, kind))
        key = policyCliName(kind);
    for (const LevelPolicyInfo &info : policies())
        if (info.name == key)
            return &info;
    return nullptr;
}

} // namespace slip
