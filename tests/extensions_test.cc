/**
 * @file
 * Tests for the extension features: trace file I/O, the stats dump,
 * the inclusive-L3 mode (Section 4.3), rd-block granularity
 * (Section 7), and the drifting/sparse-reuse workload patterns.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "mem/trace_io.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "workloads/benchmark.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("slip_test_") + name + "_" +
             std::to_string(::getpid())))
        .string();
}

TEST(TraceIoTest, TextSkipsComments)
{
    const std::string path = tempPath("cmt.trc");
    {
        std::ofstream os(path);
        os << "# a comment line\nR 100\n# another\nW 200\n";
    }
    std::string err;
    auto src = TraceSource::open(path, 0, /*loop=*/false, &err);
    ASSERT_NE(src, nullptr) << err;
    MemAccess a;
    ASSERT_TRUE(src->next(a));
    EXPECT_EQ(a.addr, 0x100u);
    ASSERT_TRUE(src->next(a));
    EXPECT_EQ(a.addr, 0x200u);
    EXPECT_FALSE(src->next(a));
    std::filesystem::remove(path);
}

TEST(TraceIoTest, LoopingRestarts)
{
    const std::string path = tempPath("loop.trc");
    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        w->append({0x40, AccessType::Read});
        EXPECT_EQ(w->close(), "");
    }
    std::string err;
    auto src = TraceSource::open(path, 0, /*loop=*/true, &err);
    ASSERT_NE(src, nullptr) << err;
    MemAccess a;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(src->next(a));
        EXPECT_EQ(a.addr, 0x40u);
    }
    std::filesystem::remove(path);
}

TEST(TraceIoTest, DrivesSystem)
{
    const std::string path = tempPath("sys.trc");
    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        // A small loop as a trace: second pass hits in L1.
        for (int rep = 0; rep < 4; ++rep)
            for (Addr l = 0; l < 64; ++l)
                w->append({(Addr{1} << 34) + l * kLineSize,
                           AccessType::Read});
        EXPECT_EQ(w->close(), "");
    }
    SystemConfig cfg;
    System sys(cfg);
    std::string err;
    auto src = TraceSource::open(path, 0, /*loop=*/false, &err);
    ASSERT_NE(src, nullptr) << err;
    sys.run({src.get()}, 4 * 64, 0);
    EXPECT_EQ(sys.coreStats(0).accesses, 4u * 64);
    // 64 compulsory misses, the rest L1 hits.
    EXPECT_EQ(sys.coreStats(0).l1Hits, 3u * 64);
    std::filesystem::remove(path);
}

TEST(StatsDumpTest, ContainsKeyLines)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::SlipAbp;
    System sys(cfg);
    auto w = makeSpecWorkload("gcc");
    sys.run({w.get()}, 50000, 10000);

    std::ostringstream os;
    dumpStats(sys, os);
    const std::string out = os.str();
    for (const char *key :
         {"system.policy SLIP+ABP", "core0.l2.demand_accesses",
          "l3.energy_pj.total", "dram.reads", "eou.operations",
          "core0.tlb.misses", "l3.insert_class.abp"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(InclusiveL3Test, BackInvalidatesUpperLevels)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::Baseline;
    cfg.inclusiveL3 = true;
    System sys(cfg);
    // Thrash the L3 with a large loop; inclusion means L1/L2 can never
    // hold a line absent from L3.
    auto w = std::make_unique<Workload>("t", 0.3, 9);
    w->addPattern(
        std::make_unique<RandomPattern>(Addr{1} << 34, 8 << 20));
    w->addPhase({1.0}, 1u << 30);
    sys.run({w.get()}, 300000, 0);

    // Verify the inclusion invariant exhaustively.
    unsigned violations = 0;
    for (unsigned lvl = 0; lvl < 2; ++lvl) {
        CacheLevel &upper = lvl == 0 ? sys.l1(0) : sys.l2(0);
        for (unsigned set = 0; set < upper.numSets(); ++set)
            for (unsigned way = 0; way < upper.numWays(); ++way) {
                const CacheLine &ln = upper.lineAt(set, way);
                if (ln.valid && !sys.l3().peek(ln.tag).hit)
                    ++violations;
            }
    }
    EXPECT_EQ(violations, 0u);
    EXPECT_GT(sys.l2(0).stats().invalidations, 0u);
}

TEST(InclusiveL3Test, AbpWithheldFromL3Pool)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::SlipAbp;
    cfg.inclusiveL3 = true;
    System sys(cfg);
    ASSERT_NE(sys.eouL3(), nullptr);
    EXPECT_FALSE(sys.eouL3()->allowsAbp());
    EXPECT_TRUE(sys.eouL2()->allowsAbp());

    auto w = makeSpecWorkload("lbm");
    sys.run({w.get()}, 200000, 200000);
    // No insertion was ever fully bypassed at the L3.
    EXPECT_EQ(sys.l3().stats().insertClass[unsigned(
                  InsertClass::AllBypass)],
              0u);
    // The L2 still bypasses freely.
    EXPECT_GT(sys.combinedL2Stats().insertClass[unsigned(
                  InsertClass::AllBypass)],
              0u);
}

TEST(RdBlockTest, BlocksShareOnePolicy)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::SlipAbp;
    cfg.rdBlockPages = 4;
    System sys(cfg);
    auto w = std::make_unique<Workload>("t", 0.2, 11);
    w->addPattern(
        std::make_unique<RandomPattern>(Addr{1} << 34, 24 << 20));
    w->addPhase({1.0}, 1u << 30);
    sys.run({w.get()}, 400000, 400000);

    // All pages of one block read the same PTE entry, so converged
    // policies exist and metadata is tracked per block (1/4 as many
    // records as pages touched).
    EXPECT_GT(sys.eouOperations(), 0u);
    EXPECT_LT(sys.metadataStore().pagesTracked(),
              sys.pageTable().pagesTouched() + 16);
    const Addr first_page = (Addr{1} << 34) >> kPageBits;
    const Addr block = first_page / 4;
    const Pte &pte = sys.pageTable().pte(block);
    (void)pte;  // presence is the contract; policy value is workload-
                // dependent
}

TEST(RdBlockTest, ConvergesFasterThanPerPage)
{
    auto eou_ops = [](unsigned block_pages) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::SlipAbp;
        cfg.rdBlockPages = block_pages;
        System sys(cfg);
        auto w = makeSpecWorkload("lbm");
        sys.run({w.get()}, 200000, 0);
        // Stable fraction proxy: bypassed insertions at L2.
        const auto l2 = sys.combinedL2Stats();
        return double(l2.insertClass[unsigned(
                   InsertClass::AllBypass)]) /
               double(l2.insertions + l2.bypasses);
    };
    // Grouping 8 pages per rd-block multiplies the TLB-miss events
    // feeding each block's sampling state machine.
    EXPECT_GT(eou_ops(8), eou_ops(1));
}

TEST(PatternTest2, DriftingLoopDrifts)
{
    DriftingLoopPattern p(0, 64 * kLineSize, /*drift_period=*/16);
    Random rng(1);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 64 * 40; ++i)
        seen.insert(p.next(rng));
    // A static loop would touch 64 lines; drifting reaches more.
    EXPECT_GT(seen.size(), 100u);
    EXPECT_LE(seen.size(), 8u * 64);  // bounded by the drift region
}

TEST(PatternTest2, DriftingLoopShortTermReuse)
{
    DriftingLoopPattern p(0, 64 * kLineSize, 50);
    Random rng(2);
    std::unordered_map<Addr, int> last;
    int reuses = 0, total = 0;
    for (int i = 0; i < 6400; ++i) {
        const Addr a = p.next(rng);
        auto it = last.find(a);
        if (it != last.end()) {
            ++total;
            reuses += (i - it->second) <= 65;
        }
        last[a] = i;
    }
    // Nearly all reuse is at the loop period.
    EXPECT_GT(double(reuses) / total, 0.9);
}

TEST(PatternTest2, SparseReuseRate)
{
    SparseReusePattern p(0, 16 << 20, 0.10, 512);
    Random rng(3);
    std::unordered_map<Addr, int> last;
    int short_reuse = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const Addr a = p.next(rng);
        auto it = last.find(a);
        if (it != last.end() && i - it->second < 1024)
            ++short_reuse;
        last[a] = i;
    }
    // ~10% of references re-touch a recent line.
    EXPECT_NEAR(double(short_reuse) / n, 0.10, 0.03);
}

} // namespace
} // namespace slip
