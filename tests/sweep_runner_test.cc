/**
 * @file
 * The parallel sweep engine (src/sweep/):
 *
 *  - determinism: the same RunSpec executed serially and through a
 *    multi-threaded SweepRunner yields byte-identical RunResults;
 *  - the on-disk result cache round-trips every field and treats
 *    truncated/corrupted/empty files as misses, never as zeros;
 *  - duplicate enqueues coalesce onto one simulation;
 *  - concurrent stores to one cache directory never tear files.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sweep/result_cache.hh"
#include "sweep/run_result.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

/** Fresh per-test cache directory under the system temp dir. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        _path = (std::filesystem::temp_directory_path() /
                 ("slip_sweep_test_" + std::to_string(::getpid()) +
                  "_" + info->name()))
                    .string();
        std::filesystem::remove_all(_path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(_path); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

SweepOptions
tinyOptions()
{
    SweepOptions opts;
    opts.refs = 30000;
    opts.warmup = 15000;
    return opts;
}

RunResult
sampleResult()
{
    // A real (small) run, so every field is exercised with non-trivial
    // values including the nested CacheLevelStats arrays.
    return executeRun(RunSpec::single("gcc", PolicyKind::SlipAbp,
                                      tinyOptions()));
}

TEST(RunSpec, KeysDistinguishConfigurations)
{
    const SweepOptions opts = tinyOptions();
    const auto base =
        RunSpec::single("gcc", PolicyKind::Baseline, opts);
    EXPECT_EQ(base.key(),
              RunSpec::single("gcc", PolicyKind::Baseline, opts).key());
    EXPECT_NE(base.key(),
              RunSpec::single("mcf", PolicyKind::Baseline, opts).key());
    EXPECT_NE(base.key(),
              RunSpec::single("gcc", PolicyKind::Slip, opts).key());
    SweepOptions other = opts;
    other.config.rdBinBits = 6;
    EXPECT_NE(base.key(),
              RunSpec::single("gcc", PolicyKind::Baseline, other).key());
    const auto mix =
        RunSpec::mix("gcc", "mcf", PolicyKind::Baseline, opts);
    EXPECT_NE(base.key(), mix.key());
    EXPECT_TRUE(mix.isMix());
}

TEST(SweepDeterminism, ParallelMatchesSerialByteForByte)
{
    const SweepOptions opts = tinyOptions();
    std::vector<RunSpec> specs;
    for (const char *bench : {"gcc", "mcf", "lbm"})
        for (PolicyKind pk : {PolicyKind::Baseline, PolicyKind::SlipAbp})
            specs.push_back(RunSpec::single(bench, pk, opts));
    specs.push_back(
        RunSpec::mix("gcc", "mcf", PolicyKind::SlipAbp, opts));

    // Serial reference: plain executeRun on this thread, no cache.
    std::vector<std::string> serial;
    for (const auto &s : specs)
        serial.push_back(runResultToString(executeRun(s)));

    // The same specs through a 4-worker runner, twice (fresh runner
    // each time), with caching disabled so every run truly executes.
    for (int round = 0; round < 2; ++round) {
        SweepRunner runner(4, ResultCache::disabled());
        std::vector<std::shared_future<RunResult>> futs;
        for (const auto &s : specs)
            futs.push_back(runner.enqueue(s));
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(runResultToString(futs[i].get()), serial[i])
                << "round " << round << ": " << specs[i].label();
        EXPECT_EQ(runner.stats().executed, specs.size());
    }
}

TEST(SweepRunner, DuplicateEnqueuesCoalesce)
{
    const RunSpec spec =
        RunSpec::single("gcc", PolicyKind::Baseline, tinyOptions());
    SweepRunner runner(2, ResultCache::disabled());
    auto f1 = runner.enqueue(spec);
    auto f2 = runner.enqueue(spec);
    auto f3 = runner.enqueue(spec);
    runner.wait();
    EXPECT_EQ(runResultToString(f1.get()),
              runResultToString(f3.get()));
    EXPECT_EQ(runResultToString(f1.get()),
              runResultToString(f2.get()));
    const auto st = runner.stats();
    EXPECT_EQ(st.executed, 1u);
    EXPECT_EQ(st.memoHits, 2u);
}

TEST(SweepRunner, CallerMayGrowEnvironmentWhileRunsAreInFlight)
{
    // slip-bench applies --refs/--warmup/--cache with setenv, which
    // may reallocate the environment array. A worker that calls
    // getenv at the same time (as default-constructing a RunSpec does,
    // through SweepOptions()) can read the freed array and crash.
    // Keep a 4-worker pool busy with many tiny runs while this thread
    // adds fresh variables, so any worker getenv overlaps reallocs.
    SweepOptions opts;
    opts.refs = 200;
    opts.warmup = 200;
    std::vector<RunSpec> specs;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        opts.config.seed = seed;  // distinct keys: no memo coalescing
        specs.push_back(RunSpec::single("gcc", PolicyKind::Baseline, opts));
    }

    const std::string prefix =
        "SLIP_SWEEP_TEST_ENV_" + std::to_string(::getpid()) + "_";
    std::vector<std::string> names;
    {
        SweepRunner runner(4, ResultCache::disabled());
        std::vector<std::shared_future<RunResult>> futs;
        for (const auto &s : specs)
            futs.push_back(runner.enqueue(s));
        constexpr std::size_t kMaxVars = 4000;
        while (names.size() < kMaxVars &&
               runner.stats().executed < specs.size()) {
            names.push_back(prefix + std::to_string(names.size()));
            ASSERT_EQ(::setenv(names.back().c_str(), "1", 1), 0);
        }
        runner.wait();
        EXPECT_EQ(runner.stats().executed, specs.size());
        for (auto &f : futs)
            EXPECT_GT(f.get().instructions, 0.0);
    }
    for (const auto &n : names)
        ::unsetenv(n.c_str());
    EXPECT_FALSE(names.empty());
}

TEST(RunSpec, FactoriesMayRunWhileCallerGrowsEnvironment)
{
    // The factories copy the caller's options. Were they to
    // default-construct a RunSpec first, SweepOptions() would call
    // getenv, which can read the environment array while a setenv on
    // another thread reallocates and frees it. Three threads build
    // specs while this thread adds fresh variables.
    const SweepOptions opts;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> built{0};
    std::vector<std::thread> builders;
    for (int t = 0; t < 3; ++t)
        builders.emplace_back([&] {
            while (!done.load()) {
                const RunSpec specs[] = {
                    RunSpec::single("gcc", PolicyKind::Baseline, opts),
                    RunSpec::mix("gcc", "mcf", PolicyKind::Slip, opts),
                    RunSpec::replicated("gcc", 4, PolicyKind::Baseline,
                                        opts),
                };
                built += std::size(specs);
            }
        });
    while (built.load() == 0)
        std::this_thread::yield();

    const std::string prefix =
        "SLIP_RUNSPEC_TEST_ENV_" + std::to_string(::getpid()) + "_";
    std::vector<std::string> names;
    for (std::size_t i = 0; i < 4000; ++i) {
        names.push_back(prefix + std::to_string(i));
        EXPECT_EQ(::setenv(names.back().c_str(), "1", 1), 0);
    }
    done = true;
    for (auto &t : builders)
        t.join();
    for (const auto &n : names)
        ::unsetenv(n.c_str());
}

TEST(SweepRunner, SecondRunnerHitsDiskCache)
{
    TempCacheDir dir;
    const RunSpec spec =
        RunSpec::single("gcc", PolicyKind::Baseline, tinyOptions());
    std::string first;
    {
        SweepRunner runner(2, ResultCache(dir.path()));
        first = runResultToString(runner.run(spec));
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    {
        SweepRunner runner(2, ResultCache(dir.path()));
        EXPECT_EQ(runResultToString(runner.run(spec)), first);
        const auto st = runner.stats();
        EXPECT_EQ(st.executed, 0u);
        EXPECT_EQ(st.cacheHits, 1u);
    }
}

TEST(ResultCache, RoundTripPreservesEveryField)
{
    TempCacheDir dir;
    const ResultCache cache(dir.path());
    const RunResult r = sampleResult();
    cache.store("roundtrip", r);

    RunResult loaded;
    ASSERT_TRUE(cache.lookup("roundtrip", loaded));
    EXPECT_EQ(loaded, r);
    EXPECT_EQ(runResultToString(loaded), runResultToString(r));
    // Spot-check representative fields through the typed interface.
    EXPECT_EQ(loaded.l2.demandAccesses, r.l2.demandAccesses);
    EXPECT_EQ(loaded.l3.insertClass, r.l3.insertClass);
    EXPECT_EQ(loaded.l2.invalidations, r.l2.invalidations);
    EXPECT_DOUBLE_EQ(loaded.l3EnergyPj, r.l3EnergyPj);
    EXPECT_DOUBLE_EQ(loaded.cycles, r.cycles);
    EXPECT_DOUBLE_EQ(loaded.dramTrafficLines, r.dramTrafficLines);
    EXPECT_DOUBLE_EQ(loaded.eouOps, r.eouOps);
}

TEST(ResultCache, TruncatedOrCorruptFilesAreMisses)
{
    TempCacheDir dir;
    const ResultCache cache(dir.path());
    const RunResult r = sampleResult();
    cache.store("victim", r);

    const std::string path = dir.path() + "/victim";
    std::string full;
    {
        std::ifstream is(path);
        full.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(full.size(), 100u);

    RunResult out;
    // Truncation at any prefix that drops the end marker is a miss.
    for (double frac : {0.0, 0.25, 0.5, 0.9}) {
        std::ofstream os(path, std::ios::trunc);
        os << full.substr(0, std::size_t(frac * double(full.size())));
        os.close();
        EXPECT_FALSE(cache.lookup("victim", out))
            << "truncated to fraction " << frac;
    }
    // Garbage content is a miss.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "not a result file\n";
    }
    EXPECT_FALSE(cache.lookup("victim", out));
    // Missing file is a miss; a re-store makes it hit again.
    std::filesystem::remove(path);
    EXPECT_FALSE(cache.lookup("victim", out));
    cache.store("victim", r);
    EXPECT_TRUE(cache.lookup("victim", out));
    EXPECT_EQ(out, r);
}

TEST(ResultCache, ConcurrentStoresNeverTear)
{
    TempCacheDir dir;
    const ResultCache cache(dir.path());
    const RunResult r = sampleResult();
    const std::string expect = runResultToString(r);

    // Many threads hammering the same key; readers must only ever see
    // a miss or a complete record.
    std::vector<std::thread> threads;
    std::atomic<int> torn{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                cache.store("contested", r);
                RunResult seen;
                if (cache.lookup("contested", seen) &&
                    runResultToString(seen) != expect)
                    ++torn;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(torn.load(), 0);
    // No temp files left behind.
    unsigned leftovers = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path()))
        if (e.path().filename().string().find(".tmp.") !=
            std::string::npos)
            ++leftovers;
    EXPECT_EQ(leftovers, 0u);
}

TEST(ResultCache, DisabledCacheNeverHitsOrStores)
{
    const ResultCache cache = ResultCache::disabled();
    RunResult out;
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.lookup("anything", out));
    cache.store("anything", sampleResult());  // must not crash
    EXPECT_FALSE(cache.lookup("anything", out));
}

/** resetStats() starts a fresh accounting window: the orchestrator
 *  calls it per plan so reports carry that plan's traffic only, and
 *  every copy sharing the counters must observe the reset. */
TEST(ResultCache, ResetStatsStartsFreshWindow)
{
    TempCacheDir dir;
    const ResultCache cache(dir.path());
    const ResultCache copy = cache;  // shares the counters
    const RunResult r = sampleResult();

    RunResult out;
    EXPECT_FALSE(cache.lookup("plan1", out));  // miss
    cache.store("plan1", r);                   // store
    EXPECT_TRUE(cache.lookup("plan1", out));   // hit
    auto st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);

    copy.resetStats();
    st = cache.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.stores, 0u);
    EXPECT_EQ(st.corrupt, 0u);

    // The next window counts only its own traffic, not the history.
    EXPECT_TRUE(cache.lookup("plan1", out));
    EXPECT_FALSE(cache.lookup("plan2", out));
    st = copy.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 0u);
}

} // namespace
} // namespace slip
