/**
 * @file
 * Declarative description of the cache hierarchy.
 *
 * A HierarchySpec is an ordered vector of LevelSpecs, innermost
 * first; System builds one CacheLevel (per core for private levels,
 * one shared unit otherwise) plus a policy controller for every
 * entry, so 2-, 3-, and 4-level hierarchies all come from the same
 * code path. The inheritable LevelSpec fields are typed optionals
 * (unset = inherit) resolved against the system-wide knobs (policy,
 * topology, replacement, inclusiveness), which keeps the classic
 * Table 1 configuration expressible as an empty spec and makes
 * scenario files that spell out the defaults key-compatible with
 * programmatic configs. Names are parsed once, where scenario JSON
 * is read; resolveHierarchy() is the one place that enforces the
 * level rules.
 *
 * SLIP-managed levels consume a reuse-distance slot: per-page
 * metadata holds kMaxSlipLevels distributions (12 bits of line
 * metadata, Section 4.4), so at most two levels of any hierarchy may
 * run a SLIP-family policy.
 */

#ifndef SLIP_SIM_HIERARCHY_HH
#define SLIP_SIM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "energy/energy_params.hh"
#include "energy/topology.hh"
#include "mem/types.hh"
#include "sim/policy_kind.hh"

namespace slip {

/** RD slots available in line/page metadata (PolicyPair::code). */
constexpr unsigned kMaxSlipLevels = 2;

/** Energy/latency source of a level: "l1" (uniform, from TechParams
 * l1AccessPj + the level's latency), or TechParams l2 / l3. */
enum class EnergyRef : std::uint8_t { L1, L2, L3 };

/** Canonical scenario key ("l1", "l2", "l3"). */
const char *energyRefCliName(EnergyRef ref);

/** Parse a scenario energy key; false on unknown names. */
bool parseEnergyRef(const std::string &v, EnergyRef &out);

/** One level of the hierarchy (innermost = index 0). */
struct LevelSpec
{
    /** Stats/metric label ("l1", "l2", ...): also the obs counter
     * prefix and the stats-dump key, so it must be unique, non-empty,
     * and free of '.' and whitespace. */
    std::string name;

    std::uint64_t sizeBytes = 0;
    unsigned ways = 0;

    /** One unit per core (true) or a single shared unit (false). */
    bool isPrivate = true;

    /**
     * Address-interleaved banking of a shared level: the line address
     * selects one of @c slices independent units (low line-address
     * bits), each sized sizeBytes/slices. 1 keeps the monolithic
     * shared array; private levels must stay at 1.
     */
    unsigned slices = 1;

    /**
     * Coherence-lite (shared levels only): keep a per-line sharer
     * bitmask directory alongside the level and write-invalidate
     * other cores' private copies on demand writes. Requires the
     * level to resolve inclusive so the directory stays a superset
     * of the private levels above it.
     */
    bool coherent = false;

    /** Back-invalidate upper levels on eviction; unset maps the
     * last level to SystemConfig::inclusiveL3 and others to false. */
    std::optional<bool> inclusive;

    /** Unset inherits the system policy (level 0 always resolves to
     * baseline). */
    std::optional<PolicyKind> policy;

    /** Unset inherits the system topology. */
    std::optional<TopologyKind> topology;

    /** Unset inherits the system replacement. */
    std::optional<ReplKind> repl;

    /** Randomized sublevel victim choice (Section 7); unset inherits. */
    std::optional<bool> randomVictim;

    /** Unset selects the positional default (first L1, last L3,
     * middle L2). */
    std::optional<EnergyRef> energy;

    /** Baseline latency for "l1"-style uniform energy blocks. */
    Cycles latency = 4;

    std::array<unsigned, kNumSublevels> sublevelWays{4, 4, 8};
    unsigned waysPerRow = 4;

    /**
     * Per-level RNG stream derivation: unit seed =
     * system seed * seedMul + seedAdd (+ core index for private
     * levels). 0/0 selects the positional default, which reproduces
     * the classic per-level streams (101/151/31+7).
     */
    std::uint64_t seedMul = 0;
    std::uint64_t seedAdd = 0;

    bool operator==(const LevelSpec &) const = default;
};

/** The whole hierarchy, innermost level first. */
struct HierarchySpec
{
    std::vector<LevelSpec> levels;

    bool empty() const { return levels.empty(); }

    /**
     * Canonical cache-key fragment. An empty spec serializes as the
     * classic() spec, so legacy configs, programmatic specs, and
     * scenario files describing the same hierarchy share keys.
     */
    std::string key() const;

    /**
     * Structural validation (config-independent): level count, name
     * hygiene, power-of-two sizes/ways, sublevel partitions, level-0
     * constraints. Returns "" when valid, else a message naming the
     * offending level.
     */
    std::string validate() const;

    /** The paper's Table 1 three-level hierarchy, knobs inherited. */
    static HierarchySpec classic();

    bool operator==(const HierarchySpec &) const = default;
};

/** System-wide knobs a spec's inherit markers resolve against. */
struct HierarchyDefaults
{
    PolicyKind policy = PolicyKind::Baseline;
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    ReplKind repl = ReplKind::Lru;
    bool randomVictim = false;
    bool inclusiveLast = false;  ///< cfg.inclusiveL3
    const TechParams *tech = nullptr;
};

/** A LevelSpec with every inherit marker resolved. */
struct ResolvedLevel
{
    std::string name;
    std::uint64_t sizeBytes = 0;
    unsigned ways = 0;
    bool shared = false;
    unsigned slices = 1;
    bool coherent = false;
    bool inclusive = false;
    PolicyKind policy = PolicyKind::Baseline;
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    ReplKind repl = ReplKind::Lru;
    bool randomVictim = false;
    LevelEnergyParams energy;
    std::array<unsigned, kNumSublevels> sublevelWays{4, 4, 8};
    unsigned waysPerRow = 4;
    std::uint64_t seedMul = 0;
    std::uint64_t seedAdd = 0;
};

/**
 * Resolve @p spec (or classic() when empty) against @p defs, and
 * enforce every level rule: validate(), coherent levels resolving
 * inclusive, and at most kMaxSlipLevels SLIP-managed levels after
 * inheritance. On error returns an empty vector and sets @p err to a
 * message naming the level ("level N ('name')...").
 */
std::vector<ResolvedLevel>
resolveHierarchy(const HierarchySpec &spec, const HierarchyDefaults &defs,
                 std::string *err);

} // namespace slip

#endif // SLIP_SIM_HIERARCHY_HH
