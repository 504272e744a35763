#include "workloads/spec_suite.hh"

#include <functional>

#include "util/logging.hh"
#include "workloads/trace_workload.hh"

namespace slip {

namespace {

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/** Widely separated region bases so components never alias. */
Addr
regionBase(unsigned idx)
{
    return Addr{idx + 1} << 34;  // 16 GB apart
}

/** Stable per-name seed so every run of a benchmark is identical. */
std::uint64_t
nameSeed(const std::string &name, std::uint64_t seed)
{
    return std::hash<std::string>{}(name) * 0x9e3779b97f4a7c15ull + seed;
}

using Builder = std::unique_ptr<Workload> (*)(std::uint64_t);

/**
 * Component kinds for the declarative benchmark table.
 *
 * Interleaving dilutes locality: a component with footprint F and
 * access weight w has an *effective* stack distance of F/w at every
 * shared cache (the other components' references intervene). The
 * footprints below are therefore chosen as (target distance) x w:
 *
 *   L2Hot  -> effective ~48 KB   (L2 sublevel 0, bin 0)
 *   L2Mid  -> effective ~100 KB  (L2 bin 1)
 *   L3Res  -> effective ~0.9 MB  (misses L2, hits L3)
 *   Miss   -> effective beyond 2 MB (misses everything)
 */
enum class CompKind {
    L2HotLoop,   ///< small loop, L2 sublevel-0 resident
    L2MidLoop,   ///< medium loop, upper L2
    L3Loop,      ///< large loop, L3 resident
    L3Chase,     ///< pointer chase, L3 resident (TLB pressure)
    MissChase,   ///< pointer chase beyond the L3
    MissRandom,  ///< random references beyond the L3
    MissScan,    ///< streaming scan, never reused in any cache
    SparseReuse, ///< mostly-fresh randoms with a ~10% short re-touch
                 ///< rate: low-hit pages the L3 should retain, whose
                 ///< evidence narrow bin counters destroy (Section 6's
                 ///< bit-width study)
    L3Victim,    ///< loop sized to an effective stack distance just
                 ///< under the L3 (~1.8 MB): baseline set conflicts
                 ///< with stream insertions cost it some hits, which
                 ///< bypassing the streams restores (the pollution
                 ///< avoidance behind Figure 12's traffic reduction)
    Bimodal,     ///< soplex-style two-pass segments (short or long)
};

struct CompSpec
{
    CompKind kind;
    double weight;          ///< access fraction within its phase
    std::uint64_t param;    ///< footprint override (0 = derived)
};

/** Round up to a power of two (ChasePattern requirement). */
std::uint64_t
pow2Ceil(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

std::unique_ptr<Pattern>
makeComponent(const CompSpec &spec, unsigned idx)
{
    const Addr base = regionBase(idx);
    const double w = spec.weight;
    switch (spec.kind) {
      case CompKind::L2HotLoop: {
        std::uint64_t f = spec.param ? spec.param
                                     : std::uint64_t(48 * KB * w);
        f = std::max<std::uint64_t>(f / kLineSize, 16) * kLineSize;
        return std::make_unique<DriftingLoopPattern>(base, f);
      }
      case CompKind::L2MidLoop: {
        std::uint64_t f = spec.param ? spec.param
                                     : std::uint64_t(100 * KB * w);
        f = std::max<std::uint64_t>(f / kLineSize, 32) * kLineSize;
        return std::make_unique<DriftingLoopPattern>(base, f);
      }
      case CompKind::L3Loop: {
        std::uint64_t f = spec.param
                              ? spec.param
                              : std::uint64_t(0.6 * MB * w);
        f = std::max<std::uint64_t>(f / kLineSize, 64) * kLineSize;
        return std::make_unique<DriftingLoopPattern>(base, f);
      }
      case CompKind::L3Chase: {
        std::uint64_t f = spec.param
                              ? spec.param
                              : std::uint64_t(0.6 * MB * w);
        return std::make_unique<ChasePattern>(
            base, std::max<std::uint64_t>(pow2Ceil(f), 64 * KB));
      }
      case CompKind::MissChase:
        return std::make_unique<ChasePattern>(
            base, spec.param ? spec.param : 8 * MB);
      case CompKind::MissRandom:
        // Large enough that hits are rare: bypassing these pages is
        // genuinely the right call (cf. the borderline-footprint
        // discussion in DESIGN.md §4).
        return std::make_unique<RandomPattern>(
            base, spec.param ? spec.param : 24 * MB);
      case CompKind::MissScan:
        // Region far exceeds the L3 so that a bypass-frozen cache
        // snapshot serves only a small fraction of scan references
        // (real streams dwarf the LLC); sweeps still recur often
        // enough that scan pages converge out of the sampling state
        // over a run.
        return std::make_unique<ScanPattern>(
            base, spec.param ? spec.param : 16 * MB);
      case CompKind::SparseReuse:
        return std::make_unique<SparseReusePattern>(
            base, spec.param ? spec.param : 16 * MB);
      case CompKind::L3Victim:
        slip_assert(spec.param != 0, "L3Victim needs a footprint");
        return std::make_unique<DriftingLoopPattern>(base, spec.param);
      case CompKind::Bimodal:
        // Short segments are chosen almost always so that they carry
        // ~half of the component's accesses despite long segments
        // being ~100x longer (Figure 3's access-weighted split).
        return std::make_unique<BimodalStreamPattern>(
            base, 3 * MB, 16 * KB, spec.param ? spec.param : 1536 * KB,
            0.99);
    }
    panic("unknown component kind");
}

std::unique_ptr<Workload>
buildStationary(const std::string &name, double write_frac,
                std::uint64_t seed, const std::vector<CompSpec> &specs)
{
    auto w = std::make_unique<Workload>(name, write_frac,
                                        nameSeed(name, seed));
    std::vector<double> weights;
    unsigned idx = 0;
    for (const auto &s : specs) {
        w->addPattern(makeComponent(s, idx++));
        weights.push_back(s.weight);
    }
    w->addPhase(std::move(weights), 1'000'000);
    return w;
}

// ---------------------------------------------------------------------
// Benchmark definitions. Weights are access fractions; see CompKind for
// the locality class each component lands in. The mixes are calibrated
// so the per-benchmark L2/L3 hit rates, bypass fractions, and energy
// savings track the paper's per-benchmark behaviour (Figures 9, 14).
// ---------------------------------------------------------------------

std::unique_ptr<Workload>
makeSoplex(std::uint64_t seed)
{
    return buildStationary(
        "soplex", 0.35, seed,
        {
            {CompKind::L2HotLoop, 0.18, 0},       // tight pivot loops
            {CompKind::Bimodal, 0.24, 0},         // rorig/corig rotate
            {CompKind::MissRandom, 0.18, 0},       // rperm[rorig[i]]
            {CompKind::L3Loop, 0.08, 0},          // cperm large reuse
            {CompKind::L3Victim, 0.07, 128 * KB}, // cperm boundary part
            {CompKind::MissScan, 0.25, 0},        // matrix sweeps
        });
}

std::unique_ptr<Workload>
makeGcc(std::uint64_t seed)
{
    return buildStationary("gcc", 0.30, seed,
                           {
                               {CompKind::L2HotLoop, 0.30, 0},
                               {CompKind::L2MidLoop, 0.15, 0},
                               {CompKind::L3Loop, 0.10, 0},
                               {CompKind::L3Victim, 0.10, 180 * KB},
                               {CompKind::MissRandom, 0.10, 0},
                               {CompKind::SparseReuse, 0.10, 0},
                               {CompKind::MissScan, 0.15, 0},
                           });
}

std::unique_ptr<Workload>
makeMcf(std::uint64_t seed)
{
    // Phased: a pointer-chasing phase whose lines mostly miss, then a
    // phase where previously-bypassed structures become reusable
    // (Section 4.1's motivation for time-based sampling).
    auto w = std::make_unique<Workload>("mcf", 0.20,
                                        nameSeed("mcf", seed));
    w->addPattern(makeComponent({CompKind::L2HotLoop, 0.20, 0}, 0));
    w->addPattern(makeComponent({CompKind::L3Chase, 0.20, 0}, 1));
    w->addPattern(
        makeComponent({CompKind::MissChase, 0.60, 16 * MB}, 2));
    w->addPattern(
        makeComponent({CompKind::MissRandom, 0.20, 0}, 3));
    //                 hot   l3chase misschase random
    w->addPhase({0.10, 0.15, 0.55, 0.20}, 3'000'000);
    w->addPhase({0.35, 0.30, 0.15, 0.20}, 1'500'000);
    return w;
}

std::unique_ptr<Workload>
makeXalancbmk(std::uint64_t seed)
{
    // Wide page footprint (high TLB miss rate, Section 4.1).
    return buildStationary("xalancbmk", 0.30, seed,
                           {
                               {CompKind::L2HotLoop, 0.25, 0},
                               {CompKind::L3Chase, 0.30, 0},
                               {CompKind::MissChase, 0.30, 4 * MB},
                               {CompKind::SparseReuse, 0.15, 0},
                           });
}

std::unique_ptr<Workload>
makeLeslie3d(std::uint64_t seed)
{
    return buildStationary("leslie3D", 0.35, seed,
                           {
                               {CompKind::L2HotLoop, 0.20, 0},
                               {CompKind::L2MidLoop, 0.15, 0},
                               {CompKind::L3Loop, 0.15, 0},
                               {CompKind::L3Victim, 0.15, 270 * KB},
                               {CompKind::MissScan, 0.35, 0},
                           });
}

std::unique_ptr<Workload>
makeOmnetpp(std::uint64_t seed)
{
    return buildStationary("omnetpp", 0.30, seed,
                           {
                               {CompKind::L2HotLoop, 0.25, 0},
                               {CompKind::L3Chase, 0.25, 0},
                               {CompKind::MissRandom, 0.25, 0},
                               {CompKind::SparseReuse, 0.15, 0},
                               {CompKind::MissScan, 0.10, 0},
                           });
}

std::unique_ptr<Workload>
makeAstar(std::uint64_t seed)
{
    return buildStationary("astar", 0.25, seed,
                           {
                               {CompKind::L2HotLoop, 0.30, 0},
                               {CompKind::L2MidLoop, 0.10, 0},
                               {CompKind::L3Chase, 0.35, 0},
                               {CompKind::MissChase, 0.25, 8 * MB},
                           });
}

std::unique_ptr<Workload>
makeGemsFdtd(std::uint64_t seed)
{
    return buildStationary("gemsFDTD", 0.40, seed,
                           {
                               {CompKind::L2HotLoop, 0.15, 0},
                               {CompKind::L2MidLoop, 0.15, 0},
                               {CompKind::L3Loop, 0.125, 0},
                               {CompKind::L3Victim, 0.125, 225 * KB},
                               {CompKind::MissScan, 0.45, 0},
                           });
}

std::unique_ptr<Workload>
makeSphinx3(std::uint64_t seed)
{
    return buildStationary("sphinx3", 0.15, seed,
                           {
                               {CompKind::L2HotLoop, 0.35, 0},
                               {CompKind::L2MidLoop, 0.15, 0},
                               {CompKind::L3Loop, 0.10, 0},
                               {CompKind::L3Victim, 0.10, 180 * KB},
                               {CompKind::SparseReuse, 0.10, 0},
                               {CompKind::MissScan, 0.20, 0},
                           });
}

std::unique_ptr<Workload>
makeWrf(std::uint64_t seed)
{
    return buildStationary("wrf", 0.35, seed,
                           {
                               {CompKind::L2HotLoop, 0.30, 0},
                               {CompKind::L2MidLoop, 0.20, 0},
                               {CompKind::L3Loop, 0.15, 0},
                               {CompKind::L3Victim, 0.10, 180 * KB},
                               {CompKind::MissScan, 0.25, 0},
                           });
}

std::unique_ptr<Workload>
makeMilc(std::uint64_t seed)
{
    return buildStationary("milc", 0.40, seed,
                           {
                               {CompKind::L2HotLoop, 0.10, 0},
                               {CompKind::L3Loop, 0.10, 0},
                               {CompKind::L3Victim, 0.10, 180 * KB},
                               {CompKind::MissScan, 0.50, 0},
                               {CompKind::MissRandom, 0.20, 0},
                           });
}

std::unique_ptr<Workload>
makeCactusAdm(std::uint64_t seed)
{
    return buildStationary("cactusADM", 0.40, seed,
                           {
                               {CompKind::L2HotLoop, 0.20, 0},
                               {CompKind::L2MidLoop, 0.15, 0},
                               {CompKind::L3Loop, 0.15, 0},
                               {CompKind::L3Victim, 0.15, 270 * KB},
                               {CompKind::MissScan, 0.35, 0},
                           });
}

std::unique_ptr<Workload>
makeBzip2(std::uint64_t seed)
{
    return buildStationary("bzip2", 0.30, seed,
                           {
                               {CompKind::L2HotLoop, 0.35, 0},
                               {CompKind::L2MidLoop, 0.20, 0},
                               {CompKind::L3Loop, 0.20, 0},
                               {CompKind::SparseReuse, 0.10, 0},
                               {CompKind::MissScan, 0.15, 0},
                           });
}

std::unique_ptr<Workload>
makeLbm(std::uint64_t seed)
{
    return buildStationary("lbm", 0.45, seed,
                           {
                               {CompKind::L2HotLoop, 0.05, 0},
                               {CompKind::L2MidLoop, 0.10, 0},
                               {CompKind::MissScan, 0.75, 0},
                               {CompKind::MissRandom, 0.10, 0},
                           });
}

const std::vector<std::pair<std::string, Builder>> &
builders()
{
    static const std::vector<std::pair<std::string, Builder>> b = {
        {"soplex", makeSoplex},       {"gcc", makeGcc},
        {"xalancbmk", makeXalancbmk}, {"mcf", makeMcf},
        {"leslie3D", makeLeslie3d},   {"omnetpp", makeOmnetpp},
        {"astar", makeAstar},         {"gemsFDTD", makeGemsFdtd},
        {"sphinx3", makeSphinx3},     {"wrf", makeWrf},
        {"milc", makeMilc},           {"cactusADM", makeCactusAdm},
        {"bzip2", makeBzip2},         {"lbm", makeLbm},
    };
    return b;
}

} // namespace

const std::vector<std::string> &
specBenchmarks()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &kv : builders())
            n.push_back(kv.first);
        return n;
    }();
    return names;
}

bool
isKnownWorkload(const std::string &name)
{
    for (const auto &kv : builders())
        if (kv.first == name)
            return true;
    return false;
}

const std::vector<std::string> &
figure1Benchmarks()
{
    static const std::vector<std::string> names = {
        "soplex", "gcc", "mcf", "xalancbmk",
        "leslie3D", "omnetpp", "sphinx3",
    };
    return names;
}

std::unique_ptr<Workload>
makeSpecWorkload(const std::string &name, std::uint64_t seed)
{
    for (const auto &kv : builders())
        if (kv.first == name)
            return kv.second(seed);
    fatal("unknown benchmark '%s'", name.c_str());
}

const std::vector<std::pair<std::string, std::string>> &
multicoreMixes()
{
    // The eight mixes labelled in Figure 16.
    static const std::vector<std::pair<std::string, std::string>> mixes =
        {
            {"soplex", "mcf"},      {"xalancbmk", "gcc"},
            {"leslie3D", "soplex"}, {"omnetpp", "mcf"},
            {"cactusADM", "bzip2"}, {"milc", "sphinx3"},
            {"lbm", "gcc"},         {"gemsFDTD", "astar"},
        };
    return mixes;
}

std::unique_ptr<AccessSource>
makeMixSource(const std::string &name, unsigned core, std::uint64_t seed)
{
    // `trace:path` names replay a capture instead of a generator. No
    // per-core offset: a multicore capture already embeds each core's
    // addresses (captured post-OffsetSource), and the seed has no
    // meaning for recorded streams. Failures here are programmer
    // error — callers validate via validateTraceWorkload first.
    if (isTraceWorkload(name)) {
        std::string err;
        auto src = makeTraceWorkloadSource(name, core, &err);
        if (!src)
            fatal("%s", err.c_str());
        return src;
    }
    auto inner = makeSpecWorkload(name, seed + core * 7919);
    const Addr offset = Addr{core} << 42;  // 4 TB per core
    return std::make_unique<OffsetSource>(std::move(inner), offset);
}

} // namespace slip
