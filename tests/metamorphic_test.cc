/**
 * @file
 * Metamorphic invariant tests over the statistics the paper's figures
 * are rendered from. Unlike the golden fixtures (which pin exact
 * values), these check relations that must hold for *any* correct
 * simulation, so they survive intentional recalibrations:
 *
 *  - energy-breakdown components sum to the reported totals,
 *  - per-level hits + misses equal accesses (and the per-sublevel
 *    splits sum to the level totals),
 *  - an inclusive L3 never leaves an L1/L2 line without an L3 copy,
 *  - sweep results are identical for any --jobs value,
 *  - one simulation is byte-identical for any --run-threads value.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/epoch_series.hh"
#include "obs/metrics.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

constexpr std::uint64_t kRefs = 30000;
constexpr std::uint64_t kWarmup = 30000;

System &
runSystem(System &sys, const std::string &benchmark)
{
    auto w = makeSpecWorkload(benchmark);
    sys.run({w.get()}, kRefs, kWarmup);
    return sys;
}

void
checkLevelCountInvariants(const std::string &what,
                          const CacheLevelStats &s)
{
    SCOPED_TRACE(what);
    // hits + misses == accesses, for demand and metadata traffic.
    EXPECT_EQ(s.demandHits + s.demandMisses(), s.demandAccesses);
    EXPECT_LE(s.demandHits, s.demandAccesses);
    EXPECT_LE(s.metadataHits, s.metadataAccesses);
    EXPECT_EQ(s.missesTotal(), (s.demandAccesses - s.demandHits) +
                                   (s.metadataAccesses - s.metadataHits));

    // Every sublevel-serviced hit is a demand hit. The remainder of
    // demandHits are writeback probes, which update a resident line
    // in place without a sublevel read.
    std::uint64_t sublevel_hits = 0;
    for (unsigned i = 0; i < kNumSublevels; ++i)
        sublevel_hits += s.sublevelHits[i];
    EXPECT_LE(sublevel_hits, s.demandHits);

    // Every insertion lands in exactly one sublevel and one class.
    std::uint64_t sublevel_ins = 0;
    for (unsigned i = 0; i < kNumSublevels; ++i)
        sublevel_ins += s.sublevelInsertions[i];
    EXPECT_EQ(sublevel_ins, s.insertions);
    std::uint64_t class_ins = 0;
    for (unsigned i = 0; i < s.insertClass.size(); ++i)
        class_ins += s.insertClass[i];
    EXPECT_EQ(class_ins, s.insertions + s.bypasses);
}

void
checkEnergyInvariants(System &sys)
{
    // Per-level totals are the sum of the category breakdown.
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        for (const CacheLevelStats *s :
             {&sys.l1(c).stats(), &sys.l2(c).stats()}) {
            double cat_sum = 0;
            for (double e : s->energyPj)
                cat_sum += e;
            EXPECT_DOUBLE_EQ(cat_sum, s->totalEnergyPj());
        }
    }

    // The full-system figure is the sum of its reported components.
    const double component_sum =
        sys.instructions() * sys.config().tech.corePjPerInstr +
        sys.l1EnergyPj() + sys.l2EnergyPj() + sys.l3EnergyPj() +
        sys.dram().energyPj();
    EXPECT_NEAR(sys.fullSystemEnergyPj(), component_sum,
                1e-9 * component_sum);
}

class MetamorphicPolicyTest
    : public ::testing::TestWithParam<PolicyKind>
{};

TEST_P(MetamorphicPolicyTest, CountAndEnergyInvariants)
{
    for (const std::string benchmark : {"soplex", "mcf", "lbm"}) {
        SCOPED_TRACE(benchmark);
        SystemConfig cfg;
        cfg.policy = GetParam();
        System sys(cfg);
        runSystem(sys, benchmark);

        for (unsigned c = 0; c < sys.numCores(); ++c) {
            checkLevelCountInvariants("l1", sys.l1(c).stats());
            checkLevelCountInvariants("l2", sys.l2(c).stats());
        }
        checkLevelCountInvariants("l3", sys.l3().stats());
        checkEnergyInvariants(sys);
        sys.checkInvariants();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, MetamorphicPolicyTest,
    ::testing::Values(PolicyKind::Baseline, PolicyKind::NuRapid,
                      PolicyKind::LruPea, PolicyKind::Slip,
                      PolicyKind::SlipAbp),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        std::string name(policyName(info.param));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** Inclusive L3: no valid L1/L2 line without an L3 copy at the end of
 *  a run (back-invalidations must have kept the hierarchy inclusive). */
TEST(MetamorphicInclusionTest, InclusiveL3HoldsAtEpochBoundary)
{
    for (PolicyKind policy : {PolicyKind::Baseline, PolicyKind::Slip}) {
        SCOPED_TRACE(policyName(policy));
        SystemConfig cfg;
        cfg.policy = policy;
        cfg.inclusiveL3 = true;
        System sys(cfg);
        runSystem(sys, "soplex");

        std::uint64_t upper_lines = 0;
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            for (CacheLevel *lvl : {&sys.l1(c), &sys.l2(c)}) {
                for (unsigned s = 0; s < lvl->numSets(); ++s) {
                    for (unsigned w = 0; w < lvl->numWays(); ++w) {
                        const CacheLine &ln = lvl->lineAt(s, w);
                        if (!ln.valid)
                            continue;
                        ++upper_lines;
                        EXPECT_TRUE(sys.l3().peek(ln.tag).hit)
                            << lvl->name() << " holds line 0x"
                            << std::hex << ln.tag
                            << " absent from the inclusive L3";
                    }
                }
            }
        }
        EXPECT_GT(upper_lines, 0u) << "vacuous inclusion check";
    }
}

/** The paper's figures must not depend on the sweep's parallelism:
 *  any --jobs value yields byte-identical results. */
TEST(MetamorphicJobsTest, ResultsIdenticalForAnyJobsValue)
{
    SweepOptions opts;
    opts.refs = kRefs;
    opts.warmup = kWarmup;

    std::vector<RunSpec> specs;
    for (const std::string b : {"soplex", "mcf", "milc", "bzip2"})
        for (PolicyKind p : {PolicyKind::Baseline, PolicyKind::Slip})
            specs.push_back(RunSpec::single(b, p, opts));
    specs.push_back(
        RunSpec::mix("soplex", "mcf", PolicyKind::Slip, opts));

    std::vector<std::string> reference;
    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(jobs, ResultCache::disabled());
        std::vector<std::shared_future<RunResult>> futs;
        for (const auto &s : specs)
            futs.push_back(runner.enqueue(s));
        std::vector<std::string> serialized;
        for (auto &f : futs)
            serialized.push_back(runResultToString(f.get()));
        if (reference.empty()) {
            reference = serialized;
        } else {
            for (std::size_t i = 0; i < specs.size(); ++i)
                EXPECT_EQ(reference[i], serialized[i])
                    << specs[i].label() << " diverged at jobs=" << jobs;
        }
    }
}

/** Full stats dump of one run of @p cfg at @p run_threads, plus the
 *  epoch-series JSON when @p epochs is set. The epoch series rides
 *  along so the byte-identity check also covers the --epoch-interval
 *  output that run reports embed — the sharded pipeline must roll
 *  epochs at the same merged reference ticks the serial loop does.
 *  Epoch accounting forces the TLB-front pipeline mode, so full-front
 *  runs need @p epochs off. */
std::string
dumpAtThreads(SystemConfig cfg, unsigned run_threads,
              const std::vector<std::string> &benchmarks, bool epochs)
{
    cfg.runThreads = run_threads;
    cfg.epochIntervalRefs = epochs ? 5000 : 0;
    System sys(cfg);
    obs::EpochSeries series;
    series.intervalRefs = cfg.epochIntervalRefs;
    if (epochs)
        sys.setEpochSink(&series);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string &b =
            benchmarks.size() == 1 ? benchmarks[0] : benchmarks[c];
        owned.push_back(makeMixSource(b, c));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, kRefs, kWarmup);
    std::ostringstream os;
    dumpStats(sys, os);
    if (epochs) {
        sys.setEpochSink(nullptr);
        EXPECT_GT(series.records.size(), 1u) << "vacuous epoch check";
        os << obs::epochSeriesJson(series).dump() << '\n';
    }
    return os.str();
}

/** The classic private-L1 front levels of scenarios/hier2_flat_llc.json,
 *  spelled programmatically. */
LevelSpec
privateLevel(const char *name, std::size_t size_kb, unsigned ways,
             EnergyRef energy)
{
    LevelSpec l;
    l.name = name;
    l.sizeBytes = size_kb * 1024;
    l.ways = ways;
    l.isPrivate = true;
    l.inclusive = false;
    l.policy = PolicyKind::Baseline;
    l.energy = energy;
    l.latency = 4;
    const unsigned q = ways / 4;
    l.sublevelWays = {q, q, ways - 2 * q};
    l.waysPerRow = q;
    return l;
}

/**
 * One simulation must be byte-identical for any intra-run thread
 * count, across both pipeline modes (TLB-only front end for SLIP and
 * inclusive hierarchies, and whenever epochs are on; full
 * private-walk front end for baseline ones with epochs off) and
 * 2-/3-/4-level shapes.
 */
TEST(MetamorphicRunThreadsTest, DumpIdenticalForAnyThreadCount)
{
    // Cause-ledger deltas only accumulate with metrics on, so enable
    // collection (as --report does) for the epoch-series comparison;
    // restored below — observation never changes outcomes.
    const bool metrics_before = obs::metricsEnabled();
    obs::setMetricsEnabled(true);

    struct Case
    {
        const char *what;
        SystemConfig cfg;
        std::vector<std::string> benchmarks;
        /** Eligible for the full-front mode, which needs epochs off:
         * run an extra epochs-off pass. */
        bool fullFront = false;
    };
    std::vector<Case> cases;

    {
        // 3-level SLIP, one core: the TLB-front pipeline mode.
        Case c{"slip_3level_1core", SystemConfig{}, {"soplex"}};
        c.cfg.policy = PolicyKind::Slip;
        cases.push_back(c);
    }
    {
        // 3-level baseline, four cores: with epochs off, the
        // full-front pipeline mode with private L1+L2 walks on the
        // worker threads; with epochs on, TLB-front.
        Case c{"baseline_3level_4cores", SystemConfig{}, {"soplex"}};
        c.cfg.policy = PolicyKind::Baseline;
        c.cfg.numCores = 4;
        c.fullFront = true;
        cases.push_back(c);
    }
    {
        // Inclusive LLC forces the TLB-front mode (back-invalidations
        // reach into the private levels) on a two-core mix.
        Case c{"slip_abp_inclusive_2cores", SystemConfig{},
               {"soplex", "mcf"}};
        c.cfg.policy = PolicyKind::SlipAbp;
        c.cfg.inclusiveL3 = true;
        c.cfg.numCores = 2;
        cases.push_back(c);
    }
    {
        // 2-level baseline: with epochs off, the shortest full-front
        // hierarchy — the first shared level is level 1, so the
        // workers' walks below L1 are empty and every L1 miss and
        // PTE walk resumes in the merge stage.
        Case c{"baseline_2level_2cores", SystemConfig{},
               {"mcf", "lbm"}};
        c.cfg.policy = PolicyKind::Baseline;
        c.cfg.numCores = 2;
        c.fullFront = true;
        c.cfg.hierarchy.levels.push_back(
            privateLevel("l1", 32, 8, EnergyRef::L1));
        LevelSpec llc;
        llc.name = "llc";
        llc.sizeBytes = 1024 * 1024;
        llc.ways = 16;
        llc.isPrivate = false;
        llc.energy = EnergyRef::L3;
        c.cfg.hierarchy.levels.push_back(llc);
        cases.push_back(c);
    }
    {
        // 4-level with SLIP at L2 and the LLC (hier4_deep's shape):
        // multiple SLIP levels in the TLB-front mode.
        Case c{"slip_4level_1core", SystemConfig{}, {"soplex"}};
        c.cfg.policy = PolicyKind::Baseline;
        c.cfg.hierarchy = HierarchySpec::classic();
        c.cfg.hierarchy.levels[1].policy = PolicyKind::Slip;
        LevelSpec l3 = privateLevel("l3", 1024, 16, EnergyRef::L2);
        c.cfg.hierarchy.levels.insert(
            c.cfg.hierarchy.levels.begin() + 2, l3);
        c.cfg.hierarchy.levels[3].name = "l4";
        c.cfg.hierarchy.levels[3].policy = PolicyKind::Slip;
        c.cfg.hierarchy.levels[3].sizeBytes = 4 * 1024 * 1024;
        cases.push_back(c);
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        for (bool epochs : {true, false}) {
            if (!epochs && !c.fullFront)
                continue;
            const std::string serial =
                dumpAtThreads(c.cfg, 1, c.benchmarks, epochs);
            for (unsigned threads : {2u, 4u}) {
                EXPECT_EQ(serial, dumpAtThreads(c.cfg, threads,
                                                c.benchmarks, epochs))
                    << c.what << " diverged at run_threads=" << threads
                    << (epochs ? " (epochs on)" : " (epochs off)");
            }
        }
    }
    obs::setMetricsEnabled(metrics_before);
}

} // namespace
} // namespace slip
