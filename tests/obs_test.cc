/**
 * @file
 * Tests of the src/obs/ observability subsystem: registry gating and
 * bucketing, the energy-attribution ledger's sums-to-totals invariant,
 * golden-stats invariance with observation attached, the Chrome trace
 * schema, epoch series accounting, result-cache counters, and the
 * disabled-path overhead budget against a recorded per-access cost.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <unistd.h>

#include "obs/energy_ledger.hh"
#include "obs/epoch_series.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/result_cache.hh"
#include "sweep/run_result.hh"
#include "util/json.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

/** Every test starts and ends with observability fully off and clean. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { disarm(); }
    void TearDown() override { disarm(); }

    static void disarm()
    {
        obs::setMetricsEnabled(false);
        obs::setTraceEnabled(false);
        obs::resetMetrics();
        obs::resetTrace();
        obs::setRunObservation(obs::RunObservation{});
        obs::takeEpochSeries();
    }

    /** Relative-tolerance near-equality for accumulated picojoules. */
    static void expectNearRel(double a, double b, const char *what)
    {
        const double tol =
            1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
        EXPECT_NEAR(a, b, tol) << what;
    }

    static double sumSegments(const CacheLevelStats &s)
    {
        double total = 0;
        for (double pj : s.energyPj)
            total += pj;
        return total;
    }
};

TEST_F(ObsTest, InstrumentsAreGatedOnEnableFlag)
{
    obs::Counter &c = obs::counter("obs_test.ctr");
    obs::Gauge &g = obs::gauge("obs_test.gauge");
    obs::Histogram &h = obs::histogram("obs_test.hist");

    c.add(5);
    g.set(7);
    h.record(3);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    obs::setMetricsEnabled(true);
    c.add(5);
    g.set(7);
    h.record(3);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), 7);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 3u);
}

TEST_F(ObsTest, RegistryReturnsStableReferences)
{
    obs::Counter &a = obs::counter("obs_test.stable");
    obs::Counter &b = obs::counter("obs_test.stable");
    EXPECT_EQ(&a, &b);
}

TEST_F(ObsTest, HistogramLog2Buckets)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(~0ull),
              obs::Histogram::kNumBuckets - 1);
    EXPECT_EQ(obs::Histogram::bucketHi(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketHi(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketHi(2), 3u);
    EXPECT_EQ(obs::Histogram::bucketHi(3), 7u);

    obs::setMetricsEnabled(true);
    obs::Histogram &h = obs::histogram("obs_test.buckets");
    h.record(0);
    h.record(1);
    h.record(6);
    h.record(7);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.count(), 4u);
}

TEST_F(ObsTest, MetricsJsonSchemaAndReset)
{
    obs::setMetricsEnabled(true);
    obs::counter("obs_test.json_ctr").add(3);
    obs::histogram("obs_test.json_hist").record(5);

    json::Value snap = obs::metricsJson();
    const json::Value *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value *ctr = counters->find("obs_test.json_ctr");
    ASSERT_NE(ctr, nullptr);
    EXPECT_EQ(ctr->asU64(), 3u);
    const json::Value *hists = snap.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *hist = hists->find("obs_test.json_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->asU64(), 1u);

    // The dump round-trips through our own parser.
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(snap.dump(), back, &err)) << err;
    EXPECT_EQ(back.dump(), snap.dump());

    obs::resetMetrics();
    EXPECT_EQ(obs::counter("obs_test.json_ctr").value(), 0u);
}

/**
 * The tentpole invariant: with metrics enabled, every picojoule a
 * cache level charges lands in exactly one ledger cause, so the
 * per-cause ledger sums to the per-wire-segment totals (the numbers
 * the golden stats assert). Same for DRAM's demand/metadata split.
 */
TEST_F(ObsTest, EnergyLedgerSumsToGoldenTotals)
{
    obs::setMetricsEnabled(true);

    SweepOptions opts;
    opts.refs = 40000;
    opts.warmup = 20000;
    const RunSpec spec =
        RunSpec::single("mcf", PolicyKind::SlipAbp, opts);
    const RunResult r = executeRun(spec);

    EXPECT_GT(obs::ledgerTotal(r.l2.causePj), 0.0);
    EXPECT_GT(obs::ledgerTotal(r.l3.causePj), 0.0);
    expectNearRel(obs::ledgerTotal(r.l2.causePj), sumSegments(r.l2),
                  "l2 ledger vs segment totals");
    expectNearRel(obs::ledgerTotal(r.l3.causePj), sumSegments(r.l3),
                  "l3 ledger vs segment totals");
    expectNearRel(r.dramDemandPj + r.dramMetadataPj, r.dramEnergyPj,
                  "dram demand+metadata vs total");
}

/**
 * Observation must never perturb simulation: the full stats dump is
 * byte-identical whether the run executed with metrics, tracing, and
 * an epoch sink attached or with everything off (the registry is
 * compiled in either way).
 */
TEST_F(ObsTest, GoldenStatsInvariantUnderObservation)
{
    auto dumpOnce = [](bool observed) {
        SystemConfig cfg;
        cfg.policy = PolicyKind::SlipAbp;
        obs::EpochSeries series;
        System sys(cfg);
        if (observed) {
            obs::setMetricsEnabled(true);
            obs::setTraceEnabled(true);
            sys.setTracePid(obs::tracePidFor("obs_test.golden"));
            sys.setEpochSink(&series);
        }
        auto w = makeSpecWorkload("soplex");
        sys.run({w.get()}, 30000, 10000);
        std::ostringstream os;
        dumpStats(sys, os);
        return os.str();
    };

    const std::string observed = dumpOnce(true);
    disarm();
    const std::string plain = dumpOnce(false);
    EXPECT_EQ(observed, plain);
}

TEST_F(ObsTest, TraceChromeJsonSchema)
{
    obs::setTraceEnabled(true);

    SystemConfig cfg;
    cfg.policy = PolicyKind::SlipAbp;
    cfg.epochIntervalRefs = 5000;
    System sys(cfg);
    const std::uint64_t pid = obs::tracePidFor("obs_test.trace");
    obs::registerTraceProcess(pid, "obs_test.trace");
    sys.setTracePid(pid);
    auto w = makeSpecWorkload("mcf");
    sys.run({w.get()}, 30000, 10000);

    json::Value root = obs::traceJson();
    ASSERT_TRUE(root.find("traceEvents"));
    EXPECT_TRUE(root.find("displayTimeUnit"));
    const json::Value &events = *root.find("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.size(), 0u);

    bool saw_eou = false, saw_epoch = false, saw_process = false;
    std::uint64_t last_ts = 0;
    for (const json::Value &ev : events.elements()) {
        // The Chrome trace-event required keys, on every event.
        for (const char *key : {"ph", "ts", "pid", "tid", "name"})
            ASSERT_NE(ev.find(key), nullptr) << key;
        const std::string ph = ev.find("ph")->asString();
        const std::string name = ev.find("name")->asString();
        ASSERT_TRUE(ph == "M" || ph == "i") << ph;
        if (ph == "M") {
            saw_process |= name == "process_name";
            continue;
        }
        // Perfetto wants a scope on instant events.
        ASSERT_NE(ev.find("s"), nullptr);
        EXPECT_EQ(ev.find("pid")->asU64(), pid);
        const std::uint64_t ts = ev.find("ts")->asU64();
        EXPECT_GE(ts, last_ts) << "events must be time-sorted";
        last_ts = ts;
        saw_eou |= name == "eou_decision";
        saw_epoch |= name == "epoch_rollover";
    }
    EXPECT_TRUE(saw_process);
    EXPECT_TRUE(saw_eou);
    EXPECT_TRUE(saw_epoch);

    // The serialized form round-trips through our parser.
    std::ostringstream os;
    obs::writeChromeJson(os);
    json::Value back;
    std::string err;
    EXPECT_TRUE(json::Value::parse(os.str(), back, &err)) << err;
}

/** Epoch deltas must add back up to the whole-run ledger. */
TEST_F(ObsTest, EpochSeriesSumsToRunLedger)
{
    obs::setMetricsEnabled(true);
    obs::RunObservation watch;
    watch.collectEpochs = true;
    watch.epochIntervalRefs = 5000;
    obs::setRunObservation(watch);

    SweepOptions opts;
    opts.refs = 30000;
    opts.warmup = 10000;
    const RunSpec spec = RunSpec::single("mcf", PolicyKind::Slip, opts);
    const RunResult r = executeRun(spec);

    const auto all = obs::takeEpochSeries();
    ASSERT_EQ(all.size(), 1u);
    const obs::EpochSeries &series = all[0];
    EXPECT_EQ(series.label, spec.key());
    EXPECT_EQ(series.intervalRefs, watch.epochIntervalRefs);
    ASSERT_GT(series.records.size(), 1u);

    obs::EnergyLedger l2_sum{};
    std::uint64_t accesses = 0;
    std::uint64_t prev_end = 0;
    for (std::size_t i = 0; i < series.records.size(); ++i) {
        const obs::EpochRecord &e = series.records[i];
        EXPECT_EQ(e.index, i);
        EXPECT_GT(e.endTick, prev_end);
        prev_end = e.endTick;
        accesses += e.accesses;
        const auto l2 = std::find_if(
            e.levels.begin(), e.levels.end(),
            [](const obs::LevelEpoch &lvl) { return lvl.name == "l2"; });
        ASSERT_NE(l2, e.levels.end());
        obs::ledgerMerge(l2_sum, l2->pj);
    }
    // Epochs only cover the measurement window (stats reset after
    // warm-up), so access counts and ledger deltas must reconstruct
    // the run totals exactly.
    EXPECT_EQ(accesses, opts.refs);
    expectNearRel(obs::ledgerTotal(l2_sum),
                  obs::ledgerTotal(r.l2.causePj),
                  "epoch l2 deltas vs run ledger");
}

TEST_F(ObsTest, ResultCacheCountsHitsMissesStoresAndCorruption)
{
    const std::string dir =
        ::testing::TempDir() + "obs_test_cache_" +
        std::to_string(::getpid());
    ResultCache cache(dir);

    RunResult r;
    r.l1EnergyPj = 42.0;
    RunResult out;
    EXPECT_FALSE(cache.lookup("k", out));
    cache.store("k", r);
    EXPECT_TRUE(cache.lookup("k", out));
    EXPECT_EQ(out.l1EnergyPj, 42.0);

    // A truncated entry (no end marker) counts as corrupt, not as a
    // zero-valued result.
    {
        std::ofstream os(dir + "/bad");
        os << "l1pj 1.0\n";
    }
    EXPECT_FALSE(cache.lookup("bad", out));

    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.corrupt, 1u);

    std::filesystem::remove_all(dir);
}

/**
 * Disabled-path budget: an instrumented site costs one relaxed load
 * and an untaken branch. Against a fixed reference per-access time, a
 * generous per-access allowance of gated sites must stay under 2% —
 * the contract that lets the instrumentation live compiled into the
 * hot path's branches.
 */
TEST_F(ObsTest, DisabledPathUnderTwoPercentOfReferenceAccessTime)
{
    // Reference cost of one simulated access, 376 ns. Source: the
    // cold 245-run figure sweep, 200,000 measured + 200,000 warm-up
    // references per run, --jobs 1 on a 1-CPU host, Release build,
    // timed at 37.27 s and 36.43 s (mean 36.85 s) when the hot path
    // was rewritten (commit fd3a9c4). So 36.85 s / (245 x 2 x
    // 200,000). Kept fixed: deriving it from a slower host or build
    // would loosen the bound.
    constexpr double kReferenceNsPerAccess =
        36.85e9 / (245.0 * 2.0 * 200'000.0);

    // Measured cost of one disabled gated instrument. Best of several
    // trials: the suite runs under ctest -j alongside CPU-heavy tests,
    // and a single trial can be inflated by a descheduling blip; the
    // minimum is the contention-free cost we are bounding.
    ASSERT_FALSE(obs::metricsEnabled());
    obs::Counter &c = obs::counter("obs_test.overhead");
    constexpr std::uint64_t kIters = 4'000'000;
    constexpr int kTrials = 5;
    double per_gate_ns = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i)
            c.add();
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            double(kIters);
        per_gate_ns = std::min(per_gate_ns, ns);
    }
    EXPECT_EQ(c.value(), 0u);

    // The per-access hot path crosses at most a handful of gates (L1
    // hit charge, epoch check, and amortized miss-path sites).
    constexpr double kGatesPerAccess = 4.0;
    const double overhead = kGatesPerAccess * per_gate_ns;
    EXPECT_LT(overhead, 0.02 * kReferenceNsPerAccess)
        << per_gate_ns << " ns/gate against " << kReferenceNsPerAccess
        << " ns/access";
}

} // namespace
} // namespace slip
