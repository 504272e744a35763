#include "sim/hierarchy.hh"

#include <set>
#include <sstream>

#include "util/bitops.hh"
#include "util/check.hh"

namespace slip {

namespace {

/** Key spelling of an inheritable flag: "i" when unset. */
const char *
flagChar(const std::optional<bool> &f)
{
    if (!f)
        return "i";
    return *f ? "1" : "0";
}

/** Key spelling of an inheritable name: "*" when unset. */
template <class T>
const char *
nameOrStar(const std::optional<T> &v, const char *(*name)(T))
{
    return v ? name(*v) : "*";
}

/** Positional seed-stream defaults reproducing the classic layout:
 * L1 101, middle levels 151/251/..., last level 31+7. */
void
positionalSeed(std::size_t idx, std::size_t nlevels,
               std::uint64_t &mul, std::uint64_t &add)
{
    if (idx == 0) {
        mul = 101;
        add = 0;
    } else if (idx + 1 == nlevels) {
        mul = 31;
        add = 7;
    } else {
        mul = 151 + 100 * (idx - 1);
        add = 0;
    }
}

EnergyRef
positionalEnergy(std::size_t idx, std::size_t nlevels)
{
    if (idx == 0)
        return EnergyRef::L1;
    if (idx + 1 == nlevels)
        return EnergyRef::L3;
    return EnergyRef::L2;
}

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

const char *
energyRefCliName(EnergyRef ref)
{
    switch (ref) {
      case EnergyRef::L1:
        return "l1";
      case EnergyRef::L2:
        return "l2";
      case EnergyRef::L3:
        return "l3";
    }
    return "?";
}

bool
parseEnergyRef(const std::string &v, EnergyRef &out)
{
    if (v == "l1")
        out = EnergyRef::L1;
    else if (v == "l2")
        out = EnergyRef::L2;
    else if (v == "l3")
        out = EnergyRef::L3;
    else
        return false;
    return true;
}

HierarchySpec
HierarchySpec::classic()
{
    HierarchySpec h;

    LevelSpec l1;
    l1.name = "l1";
    l1.sizeBytes = 32 * 1024;
    l1.ways = 8;
    l1.isPrivate = true;
    l1.inclusive = false;
    l1.policy = PolicyKind::Baseline;
    l1.topology = TopologyKind::HierBusSetInterleaved;
    l1.repl = ReplKind::Lru;
    l1.randomVictim = false;
    l1.energy = EnergyRef::L1;
    l1.latency = 4;
    l1.sublevelWays = {2, 2, 4};
    l1.waysPerRow = 2;
    h.levels.push_back(l1);

    LevelSpec l2;
    l2.name = "l2";
    l2.sizeBytes = 256 * 1024;
    l2.ways = 16;
    l2.isPrivate = true;
    l2.inclusive = false;
    l2.energy = EnergyRef::L2;
    h.levels.push_back(l2);

    LevelSpec l3;
    l3.name = "l3";
    l3.sizeBytes = 2 * 1024 * 1024;
    l3.ways = 16;
    l3.isPrivate = false;
    l3.energy = EnergyRef::L3;
    h.levels.push_back(l3);

    return h;
}

std::string
HierarchySpec::key() const
{
    const HierarchySpec resolved = empty() ? classic() : *this;
    std::ostringstream os;
    os << "h" << resolved.levels.size();
    for (std::size_t i = 0; i < resolved.levels.size(); ++i) {
        const LevelSpec &l = resolved.levels[i];
        std::uint64_t mul = l.seedMul, add = l.seedAdd;
        if (mul == 0)
            positionalSeed(i, resolved.levels.size(), mul, add);
        const EnergyRef energy = l.energy.value_or(
            positionalEnergy(i, resolved.levels.size()));
        os << ";" << l.name << "," << l.sizeBytes << "," << l.ways
           << "," << (l.isPrivate ? "p" : "s") << ","
           << flagChar(l.inclusive) << ","
           << nameOrStar(l.policy, policyCliName) << ","
           << nameOrStar(l.topology, topologyCliName) << ","
           << nameOrStar(l.repl, replCliName) << ","
           << flagChar(l.randomVictim) << ","
           << energyRefCliName(energy) << ","
           << l.latency << "," << l.sublevelWays[0] << "-"
           << l.sublevelWays[1] << "-" << l.sublevelWays[2] << ","
           << l.waysPerRow << "," << mul << "+" << add << ",x"
           << l.slices << "," << (l.coherent ? "c1" : "c0");
    }
    return os.str();
}

std::string
HierarchySpec::validate() const
{
    if (empty())
        return "";
    std::ostringstream err;
    if (levels.size() < 2) {
        err << "hierarchy needs at least 2 levels, got "
            << levels.size();
        return err.str();
    }
    if (levels.size() > 8) {
        err << "hierarchy capped at 8 levels, got " << levels.size();
        return err.str();
    }
    std::set<std::string> names;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelSpec &l = levels[i];
        const std::string where = "level " + std::to_string(i) +
                                  " ('" + l.name + "')";
        if (!validName(l.name))
            return where + ": name must be non-empty [a-z0-9_-]";
        if (!names.insert(l.name).second)
            return where + ": duplicate level name";
        if (l.ways == 0 || !isPowerOf2(l.ways) || l.ways > 32)
            return where + ": ways must be a power of two in [1, 32]";
        if (l.sizeBytes == 0 || !isPowerOf2(l.sizeBytes))
            return where + ": size must be a power of two";
        if (l.sizeBytes < std::uint64_t(l.ways) * kLineSize)
            return where + ": size smaller than one set";
        unsigned slsum = 0;
        for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
            if (l.sublevelWays[sl] == 0)
                return where + ": sublevel ways must be nonzero";
            slsum += l.sublevelWays[sl];
        }
        if (slsum != l.ways)
            return where + ": sublevel ways must sum to ways";
        if (l.waysPerRow == 0 || l.waysPerRow > l.ways)
            return where + ": ways_per_row must be in [1, ways]";
        if (l.slices == 0 || !isPowerOf2(l.slices) || l.slices > 64)
            return where +
                   ": slices must be a power of two in [1, 64]";
        if (l.slices > 1 && l.isPrivate)
            return where + ": slices > 1 requires a shared level";
        if (l.sizeBytes / l.slices <
            std::uint64_t(l.ways) * kLineSize)
            return where + ": slice size smaller than one set";
        if (l.coherent && l.isPrivate)
            return where + ": coherence requires a shared level";
        if (l.coherent && !l.inclusive.value_or(true))
            return where + ": a coherent level must be inclusive";
    }
    std::size_t ncoherent = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!levels[i].coherent)
            continue;
        ++ncoherent;
        for (std::size_t j = 0; j < i; ++j)
            if (!levels[j].isPrivate)
                return "level " + std::to_string(i) + " ('" +
                       levels[i].name +
                       "'): a coherent level must be the first "
                       "shared level (its directory tracks the "
                       "private levels above it)";
    }
    if (ncoherent > 1)
        return "at most one level may be coherent";
    if (!levels[0].isPrivate)
        return "level 0 ('" + levels[0].name +
               "'): innermost level must be private";
    if (levels[0].policy.value_or(PolicyKind::Baseline) !=
        PolicyKind::Baseline)
        return "level 0 ('" + levels[0].name +
               "'): innermost level is SLIP-agnostic and must use the "
               "baseline policy";
    if (levels[0].inclusive.value_or(false))
        return "level 0 ('" + levels[0].name +
               "'): innermost level cannot be inclusive";
    return "";
}

std::vector<ResolvedLevel>
resolveHierarchy(const HierarchySpec &spec, const HierarchyDefaults &defs,
                 std::string *err)
{
    const HierarchySpec &h = spec.empty() ? HierarchySpec::classic()
                                          : spec;
    const std::string bad = h.validate();
    if (!bad.empty()) {
        if (err)
            *err = bad;
        return {};
    }

    std::vector<ResolvedLevel> out;
    unsigned slip_levels = 0;
    for (std::size_t i = 0; i < h.levels.size(); ++i) {
        const LevelSpec &l = h.levels[i];
        ResolvedLevel r;
        r.name = l.name;
        r.sizeBytes = l.sizeBytes;
        r.ways = l.ways;
        r.shared = !l.isPrivate;
        r.slices = l.slices;
        r.coherent = l.coherent;
        const bool incl_default =
            (i + 1 == h.levels.size()) && defs.inclusiveLast;
        r.inclusive = l.inclusive.value_or(incl_default);
        if (r.coherent && !r.inclusive) {
            if (err)
                *err = "level " + std::to_string(i) +
                       ": coherence requires the level to resolve "
                       "inclusive (set the level's inclusive flag)";
            return {};
        }

        r.policy = l.policy.value_or(i == 0 ? PolicyKind::Baseline
                                            : defs.policy);
        if (isSlipPolicy(r.policy) && ++slip_levels > kMaxSlipLevels) {
            if (err)
                *err = "level " + std::to_string(i) + " ('" + l.name +
                       "').policy: more than " +
                       std::to_string(kMaxSlipLevels) +
                       " SLIP-managed levels (line/page metadata "
                       "holds " +
                       std::to_string(kMaxSlipLevels) + " RD slots)";
            return {};
        }
        r.topology = l.topology.value_or(defs.topology);
        r.repl = l.repl.value_or(defs.repl);
        r.randomVictim = l.randomVictim.value_or(defs.randomVictim);

        switch (l.energy.value_or(positionalEnergy(i, h.levels.size()))) {
          case EnergyRef::L1: {
            LevelEnergyParams p;
            p.baselineAccessPj = defs.tech->l1AccessPj;
            p.baselineLatency = l.latency;
            p.sublevelAccessPj = {defs.tech->l1AccessPj,
                                  defs.tech->l1AccessPj,
                                  defs.tech->l1AccessPj};
            p.sublevelLatency = {l.latency, l.latency, l.latency};
            p.metadataPj = 0.0;
            r.energy = p;
            break;
          }
          case EnergyRef::L2:
            r.energy = defs.tech->l2;
            break;
          case EnergyRef::L3:
            r.energy = defs.tech->l3;
            break;
        }

        r.sublevelWays = l.sublevelWays;
        r.waysPerRow = l.waysPerRow;
        r.seedMul = l.seedMul;
        r.seedAdd = l.seedAdd;
        if (r.seedMul == 0)
            positionalSeed(i, h.levels.size(), r.seedMul, r.seedAdd);
        out.push_back(std::move(r));
    }
    // Post-resolution contract: validate() vetted the spec, and every
    // default applied above must leave each level fully specified.
    SLIP_CHECK(out.size() == h.levels.size());
    SLIP_CHECK_EXPENSIVE(
        for (const ResolvedLevel &rl : out)
            SLIP_CHECK_MSG(!rl.name.empty() && rl.sizeBytes > 0 &&
                               rl.ways > 0 && rl.seedMul != 0,
                           "resolved level '%s' under-specified",
                           rl.name.c_str()));
    if (err)
        err->clear();
    return out;
}

} // namespace slip
