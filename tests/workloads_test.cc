/**
 * @file
 * Tests for the workload substrate: pattern reuse-distance properties,
 * mixture weighting, phases, determinism, and the SPEC-like suite.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "mem/trace_io.hh"
#include "scenario/scenario.hh"
#include "workloads/benchmark.hh"
#include "workloads/pattern.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

namespace slip {
namespace {

TEST(PatternTest, LoopCyclesExactly)
{
    LoopPattern p(0x1000, 4 * kLineSize);
    Random rng(1);
    std::set<Addr> first;
    for (int i = 0; i < 4; ++i)
        first.insert(p.next(rng));
    EXPECT_EQ(first.size(), 4u);
    // Second pass revisits the same addresses in the same order.
    EXPECT_EQ(p.next(rng), 0x1000u);
}

TEST(PatternTest, LoopReuseDistanceEqualsFootprint)
{
    const std::uint64_t lines = 100;
    LoopPattern p(0, lines * kLineSize);
    Random rng(1);
    std::unordered_map<Addr, int> last;
    for (int i = 0; i < 1000; ++i) {
        const Addr a = p.next(rng);
        auto it = last.find(a);
        if (it != last.end()) {
            EXPECT_EQ(i - it->second, int(lines));
        }
        last[a] = i;
    }
}

TEST(PatternTest, RandomStaysInRegion)
{
    RandomPattern p(0x10000, 64 * kLineSize);
    Random rng(2);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = p.next(rng);
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x10000u + 64 * kLineSize);
        EXPECT_EQ(a % kLineSize, 0u);
    }
}

TEST(PatternTest, HotColdRatio)
{
    HotColdPattern p(0, 16 * kLineSize, 1024 * kLineSize, 0.75);
    Random rng(3);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hot += p.next(rng) < 16 * kLineSize;
    EXPECT_NEAR(double(hot) / n, 0.75, 0.02);
}

TEST(PatternTest, ScanNeverRepeatsWithinRegion)
{
    ScanPattern p(0, 512 * kLineSize);
    Random rng(4);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 512; ++i)
        EXPECT_TRUE(seen.insert(p.next(rng)).second);
    // Wraps after covering the region.
    EXPECT_FALSE(seen.insert(p.next(rng)).second);
}

TEST(PatternTest, ChaseIsFullPeriodPermutation)
{
    const std::uint64_t lines = 256;
    ChasePattern p(0, lines * kLineSize);
    Random rng(5);
    std::unordered_set<Addr> seen;
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(seen.insert(p.next(rng)).second)
            << "duplicate at step " << i;
    EXPECT_EQ(seen.size(), lines);
}

TEST(PatternTest, ChaseVisitsManyPages)
{
    ChasePattern p(0, (1u << 20));  // 1 MB = 256 pages
    Random rng(6);
    std::unordered_set<Addr> pages;
    for (int i = 0; i < 512; ++i)
        pages.insert(pageAddr(p.next(rng)));
    // Random page order: the first 512 references should already have
    // touched a large share of the 256 pages.
    EXPECT_GT(pages.size(), 150u);
}

TEST(PatternTest, BimodalWalksSegmentsTwice)
{
    BimodalStreamPattern p(0, 1u << 20, 4 * kLineSize, 64 * kLineSize,
                           1.0);  // always short
    Random rng(7);
    std::map<Addr, int> counts;
    for (int i = 0; i < 8; ++i)
        ++counts[p.next(rng)];
    // One 4-line segment visited exactly twice per line.
    EXPECT_EQ(counts.size(), 4u);
    for (const auto &kv : counts)
        EXPECT_EQ(kv.second, 2);
}

TEST(WorkloadTest, WeightsRespected)
{
    Workload w("t", 0.0, 11);
    w.addPattern(std::make_unique<LoopPattern>(0, 16 * kLineSize));
    w.addPattern(
        std::make_unique<LoopPattern>(1u << 30, 16 * kLineSize));
    w.addPhase({0.8, 0.2}, 1u << 30);
    MemAccess acc;
    int first = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(w.next(acc));
        first += acc.addr < (1u << 30);
    }
    EXPECT_NEAR(double(first) / n, 0.8, 0.02);
}

TEST(WorkloadTest, WriteFraction)
{
    Workload w("t", 0.35, 12);
    w.addPattern(std::make_unique<LoopPattern>(0, 16 * kLineSize));
    w.addPhase({1.0}, 1u << 30);
    MemAccess acc;
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        w.next(acc);
        writes += acc.isWrite();
    }
    EXPECT_NEAR(double(writes) / n, 0.35, 0.02);
}

TEST(WorkloadTest, PhasesSwitchAndCycle)
{
    Workload w("t", 0.0, 13);
    w.addPattern(std::make_unique<LoopPattern>(0, 16 * kLineSize));
    w.addPattern(
        std::make_unique<LoopPattern>(1u << 30, 16 * kLineSize));
    w.addPhase({1.0, 0.0}, 100);
    w.addPhase({0.0, 1.0}, 100);
    MemAccess acc;
    for (int i = 0; i < 100; ++i) {
        w.next(acc);
        EXPECT_LT(acc.addr, 1u << 30);
    }
    for (int i = 0; i < 100; ++i) {
        w.next(acc);
        EXPECT_GE(acc.addr, 1u << 30);
    }
    // Cycles back to phase 0.
    w.next(acc);
    EXPECT_LT(acc.addr, 1u << 30);
}

TEST(WorkloadTest, SameSeedReproducesStream)
{
    auto w1 = makeSpecWorkload("soplex", 5);
    auto w2 = makeSpecWorkload("soplex", 5);
    MemAccess a, b;
    for (int i = 0; i < 1000; ++i) {
        w1->next(a);
        w2->next(b);
        EXPECT_EQ(b.addr, a.addr);
        EXPECT_EQ(b.type, a.type);
    }
}

TEST(SpecSuiteTest, AllBenchmarksBuildAndProduce)
{
    for (const auto &name : specBenchmarks()) {
        auto w = makeSpecWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
        MemAccess acc;
        for (int i = 0; i < 1000; ++i)
            ASSERT_TRUE(w->next(acc)) << name;
    }
    EXPECT_EQ(specBenchmarks().size(), 14u);
}

TEST(SpecSuiteTest, Figure1SubsetIsValid)
{
    for (const auto &name : figure1Benchmarks()) {
        bool found = false;
        for (const auto &all : specBenchmarks())
            found |= all == name;
        EXPECT_TRUE(found) << name;
    }
    EXPECT_EQ(figure1Benchmarks().size(), 7u);
}

TEST(SpecSuiteTest, MixesReferenceKnownBenchmarks)
{
    EXPECT_EQ(multicoreMixes().size(), 8u);
    for (const auto &mix : multicoreMixes()) {
        EXPECT_NO_FATAL_FAILURE(makeSpecWorkload(mix.first));
        EXPECT_NO_FATAL_FAILURE(makeSpecWorkload(mix.second));
    }
}

TEST(SpecSuiteTest, MixSourcesAreDisjointAcrossCores)
{
    auto s0 = makeMixSource("gcc", 0);
    auto s1 = makeMixSource("gcc", 1);
    MemAccess a, b;
    for (int i = 0; i < 1000; ++i) {
        s0->next(a);
        s1->next(b);
        EXPECT_NE(pageAddr(a.addr), pageAddr(b.addr));
    }
}

TEST(SpecSuiteTest, BenchmarksDiffer)
{
    // Distinct benchmarks must produce distinct streams.
    auto w1 = makeSpecWorkload("gcc");
    auto w2 = makeSpecWorkload("lbm");
    MemAccess a, b;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        w1->next(a);
        w2->next(b);
        same += a.addr == b.addr;
    }
    EXPECT_LT(same, 10);
}

TEST(TraceBufferTest, Replay)
{
    TraceBuffer buf;
    for (Addr a = 0; a < 10; ++a)
        buf.append(a * 64, AccessType::Read);
    EXPECT_EQ(buf.size(), 10u);

    MemAccess acc;
    int n = 0;
    while (buf.next(acc))
        ++n;
    EXPECT_EQ(n, 10);
}

// ---------------------------------------------------------------------
// `trace:` workload scheme (workloads/trace_workload.hh)
// ---------------------------------------------------------------------

std::string
traceTempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("slip_wl_test_") + name + "_" +
             std::to_string(::getpid())))
        .string();
}

TEST(TraceWorkloadTest, SchemeDetectionAndPath)
{
    EXPECT_TRUE(isTraceWorkload("trace:/tmp/a.trc2"));
    EXPECT_TRUE(isTraceWorkload("trace:"));
    EXPECT_FALSE(isTraceWorkload("soplex"));
    EXPECT_FALSE(isTraceWorkload("mytrace:x"));
    EXPECT_EQ(traceWorkloadPath("trace:/tmp/a.trc2"), "/tmp/a.trc2");
}

TEST(TraceWorkloadTest, ValidateRejectsBadTraces)
{
    // Empty path.
    std::string err = validateTraceWorkload("trace:", 1);
    EXPECT_NE(err.find("empty trace path"), std::string::npos) << err;

    // Unknown file: recoverable, names the path.
    err = validateTraceWorkload("trace:/nonexistent/wl.trc2", 1);
    EXPECT_NE(err.find("/nonexistent/wl.trc2"), std::string::npos)
        << err;
    EXPECT_NE(err.find("cannot open trace"), std::string::npos) << err;

    // A 2-core capture cannot drive a 4-core run...
    const std::string path = traceTempPath("2c.trc2");
    {
        std::string werr;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 2,
                                     &werr);
        ASSERT_NE(w, nullptr) << werr;
        w->append(TraceRecord{0, 0x1000, false, 1});
        w->append(TraceRecord{1, 0x2000, false, 1});
        ASSERT_EQ(w->close(), "");
    }
    err = validateTraceWorkload("trace:" + path, 4);
    EXPECT_NE(err.find("trace provides 2 cores"), std::string::npos)
        << err;
    // ...but is fine at its own width, and a single-core trace feeds
    // any core count.
    EXPECT_EQ(validateTraceWorkload("trace:" + path, 2), "");
    std::filesystem::remove(path);
}

TEST(TraceWorkloadTest, ScenarioValidationRejectsUnknownPath)
{
    Scenario s;
    s.name = "t";
    s.workloads = {"trace:/nonexistent/wl.trc2"};
    const std::string err = validateScenario(s);
    EXPECT_NE(err.find("$.workloads[0]"), std::string::npos) << err;
    EXPECT_NE(err.find("/nonexistent/wl.trc2"), std::string::npos)
        << err;

    // The same trace name accepted by a scenario once the file exists.
    const std::string path = traceTempPath("ok.trc2");
    {
        std::string werr;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &werr);
        ASSERT_NE(w, nullptr) << werr;
        w->append(TraceRecord{0, 0x1000, false, 1});
        ASSERT_EQ(w->close(), "");
    }
    s.workloads = {"trace:" + path};
    EXPECT_EQ(validateScenario(s), "");
    std::filesystem::remove(path);
}

TEST(TraceWorkloadTest, ResolvesThroughMixSourceRegistry)
{
    const std::string path = traceTempPath("mix.trc2");
    {
        std::string werr;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &werr);
        ASSERT_NE(w, nullptr) << werr;
        w->append(TraceRecord{0, 0x4000, false, 1});
        w->append(TraceRecord{0, 0x4040, true, 1});
        ASSERT_EQ(w->close(), "");
    }
    auto src = makeMixSource("trace:" + path, 0);
    ASSERT_NE(src, nullptr);
    MemAccess a;
    ASSERT_TRUE(src->next(a));
    EXPECT_EQ(a.addr, 0x4000u);
    EXPECT_FALSE(a.isWrite());
    ASSERT_TRUE(src->next(a));
    EXPECT_EQ(a.addr, 0x4040u);
    EXPECT_TRUE(a.isWrite());
    // `trace:` sources loop: the stream restarts instead of ending.
    ASSERT_TRUE(src->next(a));
    EXPECT_EQ(a.addr, 0x4000u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace slip
