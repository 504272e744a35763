/**
 * @file
 * Integration tests for the full System: hierarchy flow, TLB/page
 * machinery, sampling and EOU convergence, metadata traffic, writeback
 * conservation, multicore, and the energy/timing accounting the
 * experiment harnesses rely on.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workloads/benchmark.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

SystemConfig
baseConfig(PolicyKind pk)
{
    SystemConfig cfg;
    cfg.policy = pk;
    cfg.seed = 99;
    return cfg;
}

/** A one-component workload helper. */
std::unique_ptr<Workload>
singlePattern(std::unique_ptr<Pattern> p, double writes = 0.3,
              std::uint64_t seed = 21)
{
    auto w = std::make_unique<Workload>("t", writes, seed);
    w->addPattern(std::move(p));
    w->addPhase({1.0}, 1u << 30);
    return w;
}

TEST(SystemTest, TinyLoopHitsInL1)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 8 * 1024), 0.0);
    sys.run({w.get()}, 50000, 10000);
    const CoreStats &cs = sys.coreStats(0);
    // An 8 KB loop fits the 32 KB L1: nearly everything hits there.
    EXPECT_GT(double(cs.l1Hits) / cs.accesses, 0.95);
    EXPECT_LT(sys.l2(0).stats().demandAccesses, 5000u);
}

TEST(SystemTest, MediumLoopHitsInL2)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 128 * 1024), 0.0);
    sys.run({w.get()}, 100000, 50000);
    const auto &l2 = sys.l2(0).stats();
    EXPECT_GT(double(l2.demandHits) / l2.demandAccesses, 0.9);
    EXPECT_LT(sys.dram().reads(), 3000u);
}

TEST(SystemTest, LargeLoopHitsInL3)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 1024 * 1024), 0.0);
    sys.run({w.get()}, 100000, 50000);
    const auto &l3 = sys.l3().stats();
    EXPECT_GT(double(l3.demandHits) / l3.demandAccesses, 0.9);
    EXPECT_LT(sys.dram().reads(), 5000u);
}

TEST(SystemTest, HugeScanMissesEverywhere)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<ScanPattern>(Addr{1} << 34, 32 << 20), 0.0);
    sys.run({w.get()}, 100000, 10000);
    // Every reference walks down to DRAM.
    EXPECT_NEAR(double(sys.dram().reads()), 100000.0, 5000.0);
}

/** Dirty-line conservation: every written line eventually produces at
 *  most one DRAM write per L1 eviction chain, and none are lost. */
TEST(SystemTest, WritebackConservationUnderBypass)
{
    for (PolicyKind pk :
         {PolicyKind::Baseline, PolicyKind::Slip, PolicyKind::SlipAbp}) {
        System sys(baseConfig(pk));
        // Scan with writes: each line is written once and must reach
        // DRAM exactly once, bypassed or not (no warmup so nothing is
        // lost at the stats boundary; tail lines may still be cached).
        const std::uint64_t refs = 200000;
        auto w = singlePattern(
            std::make_unique<ScanPattern>(Addr{1} << 34, 64 << 20),
            1.0, 5);
        sys.run({w.get()}, refs, 0);
        const double written = refs;
        const double dram_writes =
            static_cast<double>(sys.dram().writes());
        // All but the lines still cached somewhere (L1+L2+L3 hold up
        // to ~37k lines = 18% of this run) must have landed.
        EXPECT_GT(dram_writes, written * 0.80)
            << "policy " << policyName(pk);
        EXPECT_LE(dram_writes, written * 1.02)
            << "policy " << policyName(pk);
    }
}

TEST(SystemTest, SlipConvergesToBypassForDeadPages)
{
    SystemConfig cfg = baseConfig(PolicyKind::SlipAbp);
    System sys(cfg);
    auto w = singlePattern(
        std::make_unique<RandomPattern>(Addr{1} << 34, 24 << 20), 0.2);
    sys.run({w.get()}, 600000, 600000);
    const auto &l2 = sys.l2(0).stats();
    const double abp_frac =
        double(l2.insertClass[unsigned(InsertClass::AllBypass)]) /
        double(l2.insertions + l2.bypasses);
    // Random pages miss TLB on every touch, so they converge fast and
    // are overwhelmingly bypassed at L2.
    EXPECT_GT(abp_frac, 0.5);
    EXPECT_GT(sys.eouOperations(), 100u);
}

TEST(SystemTest, SlipKeepsHotPagesCached)
{
    SystemConfig cfg = baseConfig(PolicyKind::SlipAbp);
    System sys(cfg);
    // Loop that misses L1 but fits sublevels 0-1 of the L2.
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 96 * 1024), 0.1);
    sys.run({w.get()}, 400000, 400000);
    const auto &l2 = sys.l2(0).stats();
    EXPECT_GT(double(l2.demandHits) / l2.demandAccesses, 0.85);
    // And the energy is below the baseline for the same workload.
    System base(baseConfig(PolicyKind::Baseline));
    auto wb = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 96 * 1024), 0.1);
    base.run({wb.get()}, 400000, 400000);
    EXPECT_LT(sys.l2EnergyPj(), base.l2EnergyPj() * 1.05);
}

TEST(SystemTest, SamplingBoundsMetadataTraffic)
{
    SystemConfig cfg = baseConfig(PolicyKind::SlipAbp);
    System sys(cfg);
    auto w = makeSpecWorkload("xalancbmk");
    sys.run({w.get()}, 400000, 400000);
    const auto l2 = sys.combinedL2Stats();
    // With time-based sampling the L2 metadata traffic stays a small
    // fraction of demand traffic (Section 4.2: ~2% of baseline; give
    // slack for short runs).
    EXPECT_LT(double(l2.metadataAccesses) / l2.demandAccesses, 0.15);
}

TEST(SystemTest, AlwaysSamplingInflatesMetadataTraffic)
{
    SystemConfig ts = baseConfig(PolicyKind::SlipAbp);
    SystemConfig always = ts;
    always.samplingMode = SamplingMode::Always;

    System sys_ts(ts), sys_always(always);
    auto w1 = makeSpecWorkload("xalancbmk");
    auto w2 = makeSpecWorkload("xalancbmk");
    sys_ts.run({w1.get()}, 300000, 100000);
    sys_always.run({w2.get()}, 300000, 100000);

    const auto m_ts = sys_ts.combinedL2Stats().metadataAccesses;
    const auto m_always = sys_always.combinedL2Stats().metadataAccesses;
    // The pre-sampling design fetches on every TLB miss (Section 4.1).
    EXPECT_GT(m_always, 2 * m_ts);
}

TEST(SystemTest, BaselineHasNoSlipOverheads)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = makeSpecWorkload("gcc");
    sys.run({w.get()}, 200000, 50000);
    const auto l2 = sys.combinedL2Stats();
    EXPECT_EQ(l2.metadataAccesses, 0u);
    EXPECT_DOUBLE_EQ(
        l2.energyPj[static_cast<unsigned>(EnergyCat::Metadata)], 0.0);
    EXPECT_DOUBLE_EQ(
        l2.energyPj[static_cast<unsigned>(EnergyCat::Other)], 0.0);
    EXPECT_EQ(sys.eouOperations(), 0u);
    EXPECT_EQ(sys.dram().metadataAccesses(), 0u);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        System sys(baseConfig(PolicyKind::SlipAbp));
        auto w = makeSpecWorkload("soplex");
        sys.run({w.get()}, 150000, 50000);
        return std::make_tuple(sys.l2EnergyPj(), sys.l3EnergyPj(),
                               sys.dram().reads(), sys.totalCycles());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(SystemTest, InvariantsAfterEveryPolicy)
{
    for (PolicyKind pk :
         {PolicyKind::Baseline, PolicyKind::NuRapid, PolicyKind::LruPea,
          PolicyKind::Slip, PolicyKind::SlipAbp}) {
        System sys(baseConfig(pk));
        auto w = makeSpecWorkload("mcf");
        sys.run({w.get()}, 150000, 0);
        EXPECT_NO_FATAL_FAILURE(sys.checkInvariants())
            << policyName(pk);
    }
}

TEST(SystemTest, TimingModelOrdersLatencies)
{
    // A DRAM-bound workload must accumulate far more stall time than
    // an L2-resident one.
    System near_sys(baseConfig(PolicyKind::Baseline));
    auto near_w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 128 * 1024), 0.0);
    near_sys.run({near_w.get()}, 100000, 20000);

    System far_sys(baseConfig(PolicyKind::Baseline));
    auto far_w = singlePattern(
        std::make_unique<ScanPattern>(Addr{1} << 34, 32 << 20), 0.0);
    far_sys.run({far_w.get()}, 100000, 20000);

    EXPECT_GT(far_sys.totalCycles(), 2.0 * near_sys.totalCycles());
}

TEST(SystemTest, FullSystemEnergyIncludesAllComponents)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = makeSpecWorkload("gcc");
    sys.run({w.get()}, 100000, 0);
    const double total = sys.fullSystemEnergyPj();
    const double parts = sys.instructions() *
                             sys.config().tech.corePjPerInstr +
                         sys.l1EnergyPj() + sys.l2EnergyPj() +
                         sys.l3EnergyPj() + sys.dram().energyPj();
    EXPECT_DOUBLE_EQ(total, parts);
    EXPECT_GT(total, 0.0);
}

TEST(SystemTest, HTreeTopologyCostsMore)
{
    SystemConfig flat = baseConfig(PolicyKind::Baseline);
    SystemConfig htree = flat;
    htree.topology = TopologyKind::HTree;

    System a(flat), b(htree);
    auto w1 = makeSpecWorkload("gcc");
    auto w2 = makeSpecWorkload("gcc");
    a.run({w1.get()}, 200000, 50000);
    b.run({w2.get()}, 200000, 50000);
    // Section 2.1: H-tree interconnect costs significantly more at
    // both levels, with identical hit behaviour.
    EXPECT_GT(b.l2EnergyPj(), a.l2EnergyPj() * 1.2);
    EXPECT_GT(b.l3EnergyPj(), a.l3EnergyPj() * 1.2);
    EXPECT_EQ(a.combinedL2Stats().demandHits,
              b.combinedL2Stats().demandHits);
}

TEST(SystemTest, SetInterleavedGivesSlipNoLever)
{
    SystemConfig cfg = baseConfig(PolicyKind::SlipAbp);
    cfg.topology = TopologyKind::HierBusSetInterleaved;
    System sys(cfg);
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 96 * 1024), 0.0);
    sys.run({w.get()}, 100000, 50000);
    // With uniform way energies every sublevel costs the same, so the
    // EOU sees no movement/placement benefit; behaviour stays sane.
    sys.checkInvariants();
    EXPECT_GT(sys.l2EnergyPj(), 0.0);
}

TEST(MulticoreTest, TwoCoresShareL3)
{
    SystemConfig cfg = baseConfig(PolicyKind::SlipAbp);
    cfg.numCores = 2;
    System sys(cfg);
    auto s0 = makeMixSource("gcc", 0);
    auto s1 = makeMixSource("lbm", 1);
    sys.run({s0.get(), s1.get()}, 150000, 50000);

    EXPECT_GT(sys.coreStats(0).accesses, 0u);
    EXPECT_GT(sys.coreStats(1).accesses, 0u);
    // Private L2s both saw traffic; the shared L3 saw both cores.
    EXPECT_GT(sys.l2(0).stats().demandAccesses, 0u);
    EXPECT_GT(sys.l2(1).stats().demandAccesses, 0u);
    EXPECT_GT(sys.l3().stats().demandAccesses,
              sys.l2(0).stats().demandMisses());
    sys.checkInvariants();
}

TEST(MulticoreTest, CombinedL2StatsSumCores)
{
    SystemConfig cfg = baseConfig(PolicyKind::Baseline);
    cfg.numCores = 2;
    System sys(cfg);
    auto s0 = makeMixSource("gcc", 0);
    auto s1 = makeMixSource("gcc", 1);
    sys.run({s0.get(), s1.get()}, 50000, 0);
    const auto sum = sys.combinedL2Stats();
    EXPECT_EQ(sum.demandAccesses, sys.l2(0).stats().demandAccesses +
                                      sys.l2(1).stats().demandAccesses);
    EXPECT_DOUBLE_EQ(sys.l2EnergyPj(),
                     sys.l2(0).stats().totalEnergyPj() +
                         sys.l2(1).stats().totalEnergyPj());
}

TEST(SystemTest, ResetStatsKeepsContents)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 128 * 1024), 0.0);
    sys.run({w.get()}, 50000, 0);
    sys.resetStats();
    EXPECT_EQ(sys.combinedL2Stats().demandAccesses, 0u);
    EXPECT_DOUBLE_EQ(sys.l2EnergyPj(), 0.0);
    // Contents survived: an immediate re-run hits hard.
    auto w2 = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 128 * 1024), 0.0);
    sys.run({w2.get()}, 20000, 0);
    const auto &l2 = sys.l2(0).stats();
    EXPECT_GT(double(l2.demandHits) / l2.demandAccesses, 0.9);
}

TEST(SystemTest, ContextSwitchFlushesTlb)
{
    System sys(baseConfig(PolicyKind::Baseline));
    auto w = singlePattern(
        std::make_unique<LoopPattern>(Addr{1} << 34, 8 * 1024), 0.0);
    sys.run({w.get()}, 50 * SystemConfig::contextSwitchInterval, 0);
    // Two pages, always TLB-resident except after flushes: the miss
    // count tracks the flush count.
    EXPECT_GE(sys.tlb(0).flushes(), 49u);
    EXPECT_GE(sys.tlb(0).misses(), sys.tlb(0).flushes());
}

} // namespace
} // namespace slip
