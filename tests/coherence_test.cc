/**
 * @file
 * Coherence-lite tests: the sharer-bitmask directory on the shared
 * LLC, write-invalidate back-invalidations into the private levels,
 * the `coherence` energy-cause bin, and byte-identity of the
 * pipelined run's merge-side invalidation replay.
 *
 * The canonical scenarios cannot reach the cross-core invalidation
 * path — their workload generators place each core 4 TB apart (see
 * makeMixSource), so no line is ever shared. These tests drive the
 * System with hand-written AccessSources whose cores deliberately
 * collide on a small line set.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mem/trace.hh"
#include "obs/energy_ledger.hh"
#include "obs/metrics.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"

namespace slip {
namespace {

/**
 * Deterministic generator over a small region every core touches:
 * a strided walk with a per-core phase and a write every third
 * reference, so cores continuously write-ping-pong the same lines
 * through their private L1/L2 copies.
 */
class SharedRegionSource : public AccessSource
{
  public:
    SharedRegionSource(unsigned core, std::uint64_t lines,
                       Addr base = Addr{1} << 34)
        : _core(core), _lines(lines), _base(base)
    {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        for (std::size_t k = 0; k < max; ++k) {
            const std::uint64_t i = _n++;
            const std::uint64_t line = (i * 7 + _core * 3) % _lines;
            out[k].addr = _base + line * kLineSize;
            out[k].type = (i % 3 == 0) ? AccessType::Write
                                       : AccessType::Read;
        }
        return max;
    }

  private:
    unsigned _core;
    std::uint64_t _lines;
    Addr _base;
    std::uint64_t _n = 0;
};

/** Private L1+L2 chains under a shared coherent sliced LLC. */
SystemConfig
sharedConfig(unsigned cores, unsigned slices)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.seed = 7;

    const auto level = [](const char *name, std::uint64_t size,
                          EnergyRef energy) {
        LevelSpec l;
        l.name = name;
        l.sizeBytes = size;
        l.ways = 8;
        l.inclusive = false;
        l.energy = energy;
        l.sublevelWays = {2, 2, 4};
        l.waysPerRow = 2;
        return l;
    };
    cfg.hierarchy.levels.push_back(level("l1", 32 * 1024, EnergyRef::L1));
    cfg.hierarchy.levels.push_back(level("l2", 128 * 1024, EnergyRef::L2));
    LevelSpec llc = level("llc", 1024 * 1024, EnergyRef::L3);
    llc.isPrivate = false;
    llc.slices = slices;
    llc.coherent = true;
    llc.inclusive = true;
    cfg.hierarchy.levels.push_back(llc);
    return cfg;
}

/** Run @p cores colliding sources and return the full stats dump. */
std::string
runSharing(const SystemConfig &cfg, unsigned run_threads,
           std::uint64_t refs)
{
    SystemConfig c = cfg;
    c.runThreads = run_threads;
    System sys(c);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < c.numCores; ++i) {
        owned.push_back(
            std::make_unique<SharedRegionSource>(i, 512));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, refs, refs / 4);
    std::ostringstream os;
    dumpStats(sys, os);
    return os.str();
}

TEST(CoherenceLiteTest, TrueSharingInvalidatesPrivateCopies)
{
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < 2; ++i) {
        owned.push_back(
            std::make_unique<SharedRegionSource>(i, 512));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, 30000, 10000);
    sys.checkInvariants();

    ASSERT_TRUE(sys.coherenceEnabled());
    // Every demand write probes the directory.
    EXPECT_GT(sys.coherenceWriteProbes(), 0u);
    // Colliding write streams must knock copies out of the other
    // core's private levels, and some of those copies are dirty.
    EXPECT_GT(sys.coherenceInvalidations(), 0u);
    EXPECT_GT(sys.coherenceDirtyWritebacks(), 0u);
    // The invalidations land in the private levels' own counters.
    std::uint64_t priv_inv = 0;
    for (unsigned lvl = 0; lvl < 2; ++lvl)
        for (unsigned c = 0; c < 2; ++c)
            priv_inv += sys.level(lvl, c).stats().invalidations;
    EXPECT_GE(priv_inv, sys.coherenceInvalidations());
}

TEST(CoherenceLiteTest, DisjointCoresNeverInvalidate)
{
    // Cores in disjoint address regions (the canonical-scenario
    // layout): the directory still takes write probes, but no line
    // ever has a second sharer, so zero invalidations.
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    SharedRegionSource s0(0, 512, Addr{1} << 34);
    SharedRegionSource s1(1, 512, Addr{1} << 42);
    std::vector<AccessSource *> sources{&s0, &s1};
    sys.run(sources, 20000, 5000);

    EXPECT_GT(sys.coherenceWriteProbes(), 0u);
    EXPECT_EQ(sys.coherenceInvalidations(), 0u);
    EXPECT_EQ(sys.coherenceDirtyWritebacks(), 0u);
}

TEST(CoherenceLiteTest, PipelinedRunReplaysInvalidationsIdentically)
{
    // The tentpole's byte-identity contract must hold under *true
    // sharing*, where merge-side replay of coherenceDemand is the
    // only thing keeping the pipelined run deterministic.
    const SystemConfig cfg = sharedConfig(4, 4);
    const std::string serial = runSharing(cfg, 1, 25000);
    const std::string piped = runSharing(cfg, 4, 25000);
    EXPECT_EQ(serial, piped)
        << "--run-threads 4 diverged from serial under cross-core "
           "write sharing";
}

TEST(CoherenceLiteTest, LedgerPartitionsEnergyIncludingCoherence)
{
    obs::setMetricsEnabled(true);
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < 2; ++i) {
        owned.push_back(
            std::make_unique<SharedRegionSource>(i, 512));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, 30000, 10000);

    // The coherence bin carries the directory/invalidate traffic...
    const unsigned kCoh =
        static_cast<unsigned>(obs::EnergyCause::Coherence);
    double coherence_pj = 0;
    for (unsigned i = 0; i < sys.numLevels(); ++i)
        coherence_pj += sys.combinedLevelStats(i).causePj[kCoh];
    EXPECT_GT(coherence_pj, 0.0);

    // ...and the per-cause ledger still partitions each level's
    // golden energy total exactly (the accounting identity
    // slip-report validate enforces, with the new bin included).
    for (unsigned i = 0; i < sys.numLevels(); ++i) {
        const double pj = sys.levelEnergyPj(i);
        EXPECT_NEAR(obs::ledgerTotal(sys.levelLedger(i)), pj,
                    1e-9 * (pj + 1))
            << sys.levelName(i);
    }
    obs::setMetricsEnabled(false);
}

TEST(CoherenceLiteTest, ResetStatsClearsCountersKeepsDirectory)
{
    SystemConfig cfg = sharedConfig(2, 1);
    System sys(cfg);
    SharedRegionSource s0(0, 512), s1(1, 512);
    std::vector<AccessSource *> sources{&s0, &s1};
    sys.run(sources, 20000, 5000);
    ASSERT_GT(sys.coherenceInvalidations(), 0u);

    sys.resetStats();
    EXPECT_EQ(sys.coherenceWriteProbes(), 0u);
    EXPECT_EQ(sys.coherenceInvalidations(), 0u);
    EXPECT_EQ(sys.coherenceDirtyWritebacks(), 0u);
}

// ---------------------------------------------------------------------
// Hierarchy validation for the sharing topology.

TEST(CoherenceSpecTest, ValidSharedCoherentHierarchyResolves)
{
    const SystemConfig cfg = sharedConfig(4, 8);
    EXPECT_EQ(cfg.hierarchy.validate(), "");
}

TEST(CoherenceSpecTest, RejectsIllFormedSharingTopologies)
{
    const SystemConfig good = sharedConfig(2, 2);

    HierarchySpec h = good.hierarchy;
    h.levels[2].coherent = false;
    h.levels[1].coherent = true;  // coherent on a private level
    EXPECT_NE(h.validate().find("requires a shared level"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[2].inclusive = false;  // coherent but non-inclusive
    EXPECT_NE(h.validate().find("must be inclusive"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[1].slices = 4;  // sliced private level
    EXPECT_NE(h.validate().find("requires a shared level"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[2].slices = 3;  // non-power-of-two slicing
    EXPECT_NE(h.validate().find("power of two"), std::string::npos);

    h = good.hierarchy;
    h.levels[1].isPrivate = false;  // coherent level not first shared
    EXPECT_NE(h.validate().find("first shared level"),
              std::string::npos);
}

} // namespace
} // namespace slip
