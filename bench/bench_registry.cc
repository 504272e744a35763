#include "bench_registry.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "mem/trace_io.hh"
#include "obs/epoch_series.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "perf/perf_counters.hh"
#include "scenario/scenario.hh"
#include "sweep/status_stream.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/trace_workload.hh"

namespace slip {
namespace bench {

namespace {

std::vector<BenchFigure> &
registry()
{
    static std::vector<BenchFigure> figs;
    return figs;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --jobs N          sweep worker threads "
        "(default $SLIP_BENCH_JOBS or hardware concurrency)\n"
        "  --only a,b,...    render only the named figures\n"
        "  --list            list registered figures and exit\n"
        "  --scenario F      run a declarative JSON scenario (may be\n"
        "                    repeated; replaces the figure selection)\n"
        "  --refs N          measured references per run "
        "(= SLIP_BENCH_REFS)\n"
        "  --warmup N        warm-up references (= SLIP_BENCH_WARMUP)\n"
        "  --run-threads N   pipeline threads inside each simulation "
        "(= SLIP_RUN_THREADS)\n"
        "  --cache DIR       result cache directory "
        "(= SLIP_BENCH_CACHE)\n"
        "  --profile F       enable the per-phase simulator counters\n"
        "                    and write their JSON dump to F\n"
        "  --trace-out F     enable the decision tracer and write a\n"
        "                    Chrome/Perfetto trace-event JSON to F\n"
        "  --epoch-interval N  epoch length in references for the\n"
        "                    --report-dir energy time series "
        "(default 50000)\n"
        "  --report-dir D    write one slip-report-v1 JSON per distinct\n"
        "                    run into directory D (hierarchies of at\n"
        "                    most 3 levels; deeper: slip-sim --report)\n"
        "  --status-ndjson F stream one NDJSON status event per line to\n"
        "                    F (\"-\" = stdout): plan/start/finish/done\n"
        "  --progress        in-place progress ticker with completion\n"
        "                    fraction and ETA (replaces per-run lines)\n"
        "  --no-progress     suppress per-run progress lines\n"
        "All options also accept the --flag=value form.\n",
        argv0);
}

json::Value
cacheStatsJson(const ResultCache &cache)
{
    const ResultCache::Stats cs = cache.stats();
    json::Value v = json::Value::object();
    v["dir"] = cache.dir();
    v["key_version"] = kCacheKeyVersion;
    v["hits"] = cs.hits;
    v["misses"] = cs.misses;
    v["stores"] = cs.stores;
    v["corrupt"] = cs.corrupt;
    return v;
}

/** One level's stats as the report energy entry (obs/report.hh). */
obs::ReportLevelEnergy
reportLevel(const char *name, const CacheLevelStats &s)
{
    obs::ReportLevelEnergy lvl;
    lvl.name = name;
    for (unsigned i = 0; i < s.energyPj.size(); ++i)
        lvl.segmentsPj[i] = s.energyPj[i];
    lvl.causesPj = s.causePj;
    return lvl;
}

/** Content hash(es) of a spec's `trace:` workloads, "" when none. */
std::string
specTraceHash(const RunSpec &spec)
{
    std::string hashes;
    for (const std::string *b : {&spec.benchmark, &spec.benchmarkB}) {
        if (b->empty() || !isTraceWorkload(*b))
            continue;
        std::string err;
        const std::uint64_t h =
            traceFileHash(traceWorkloadPath(*b), &err);
        if (!err.empty())
            continue;  // validated earlier; report the runnable state
        std::ostringstream os;
        os << std::hex << h;
        if (!hashes.empty())
            hashes += "+";
        hashes += os.str();
    }
    return hashes;
}

/**
 * Write one slip-report-v1 artifact per distinct run into @p dir.
 * Provenance comes from the RunSpec (plus the scenario name when the
 * run was scenario-driven), the deterministic sections from the
 * RunResult and the drained epoch series, and the volatile sections
 * from the process-wide observability state.
 */
void
writeReports(const std::string &dir, const SweepRunner &runner,
             const std::vector<RunSpec> &specs,
             const std::vector<std::shared_future<RunResult>> &futures,
             const std::map<std::string, std::string> &scenario_names,
             const std::vector<obs::EpochSeries> &epoch_series)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("could not create report dir %s: %s", dir.c_str(),
             ec.message().c_str());
        return;
    }

    // Volatile process-wide sections, shared by every report.
    const json::Value metrics = obs::metricsJson();
    const json::Value perf_stats = perf::toJson(perf::snapshot());
    const json::Value cache_stats = cacheStatsJson(runner.cache());

    // Per-key timing from the completion records (first completion of
    // the key; duplicates coalesce in the runner).
    std::map<std::string, const SweepRunner::RunRecord *> timing;
    const auto records = runner.records();
    for (const auto &rec : records)
        timing.emplace(rec.key, &rec);

    std::map<std::string, const obs::EpochSeries *> series_by_key;
    for (const auto &series : epoch_series)
        series_by_key.emplace(series.label, &series);

    std::map<std::string, const RunSpec *> unique;
    std::vector<RunResult> results(futures.size());
    std::map<std::string, const RunResult *> result_by_key;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        results[i] = futures[i].get();
        unique.emplace(specs[i].key(), &specs[i]);
        result_by_key.emplace(specs[i].key(), &results[i]);
    }

    std::size_t written = 0;
    for (const auto &kv : unique) {
        const RunSpec &spec = *kv.second;
        const RunResult &r = *result_by_key.at(kv.first);

        obs::RunReportData report;
        obs::ReportProvenance &prov = report.provenance;
        prov.runKey = kv.first;
        prov.label = spec.label();
        prov.policy = policyCliName(spec.policy);
        prov.workload = spec.isMix()
                            ? spec.benchmark + "+" + spec.benchmarkB
                            : spec.benchmark;
        const auto sit = scenario_names.find(kv.first);
        if (sit != scenario_names.end())
            prov.scenario = sit->second;
        prov.hierarchyKey = spec.opts.config.hierarchy.key();
        prov.cacheKeyVersion = kCacheKeyVersion;
        prov.traceHash = specTraceHash(spec);
        prov.runThreads = spec.opts.config.runThreads;
        prov.refs = spec.opts.refs;
        prov.warmup = spec.opts.warmup;

        // RunResult keeps level 1 as l2 and the last level as l3
        // (sweep/run_result.cc): on a 2-level hierarchy both are the
        // one outer level, listed once. Deeper hierarchies never get
        // here (benchOrchestratorMain rejects them).
        if (spec.opts.config.hierarchy.levels.size() != 2)
            report.levels.push_back(reportLevel("l2", r.l2));
        report.levels.push_back(reportLevel("l3", r.l3));
        report.corePj =
            r.instructions * spec.opts.config.tech.corePjPerInstr;
        report.l1Pj = r.l1EnergyPj;
        report.dramDemandPj = r.dramDemandPj;
        report.dramMetadataPj = r.dramMetadataPj;
        report.dramTotalPj = r.dramEnergyPj;
        report.fullSystemPj = r.fullSystemPj;

        report.cycles = r.cycles;
        report.instructions = r.instructions;
        report.dramReads = r.dramReads;
        report.dramWrites = r.dramWrites;
        report.dramMetaAccesses = r.dramMetaAccesses;
        report.dramTrafficLines = r.dramTrafficLines;
        report.tlbMisses = r.tlbMisses;
        report.eouOps = r.eouOps;

        // Cached runs re-load results without re-simulating, so they
        // produce no epoch series; the report omits the section.
        const auto eit = series_by_key.find(kv.first);
        if (eit != series_by_key.end())
            report.epochs = obs::epochSeriesJson(*eit->second);

        const auto tit = timing.find(kv.first);
        if (tit != timing.end()) {
            report.hasTiming = true;
            report.seconds = tit->second->seconds;
            report.cached = tit->second->cached;
        }
        report.metrics = metrics;
        report.perf = perf_stats;
        report.resultCache = cache_stats;

        const std::string path =
            dir + "/" + obs::reportFileName(kv.first);
        std::ofstream os(path);
        obs::reportJson(report).write(os);
        os << '\n';
        if (!os.good()) {
            warn("could not write report to %s", path.c_str());
            continue;
        }
        ++written;
    }
    std::fprintf(stderr, "reports: wrote %zu report(s) to %s\n",
                 written, dir.c_str());
}

void
writeTraceJson(const std::string &path)
{
    std::ofstream os(path);
    obs::writeChromeJson(os);
    if (!os.good())
        warn("could not write trace to %s", path.c_str());
}

/**
 * The RunSpec a scenario describes, configured by scenarioSystemConfig
 * like slip-sim --scenario. The sweep engine's workloads use workload
 * seed 0, and its RunSpec shapes cover one workload replicated across
 * cores or a two-core mix; other scenarios are rejected here rather
 * than silently run with the wrong streams (use slip-sim --scenario
 * for those).
 */
RunSpec
scenarioRunSpec(const Scenario &s)
{
    if (s.workloadSeed != 0)
        fatal("scenario '%s': the sweep engine pins workload_seed=0; "
              "use slip-sim --scenario for custom workload seeds",
              s.name.c_str());
    SweepOptions opts;
    // Without a run_threads hint, SLIP_RUN_THREADS (read by
    // SweepOptions) applies.
    const unsigned env_threads = opts.config.runThreads;
    opts.config = scenarioSystemConfig(s);
    if (!s.runThreads)
        opts.config.runThreads = env_threads;
    if (s.refs) {
        opts.refs = s.refs;
        opts.warmup = s.warmup;
    }
    const PolicyKind pk = opts.config.policy;
    const unsigned cores = opts.config.numCores;

    if (cores == 1)
        return RunSpec::single(s.workloads[0], pk, opts);
    if (cores == 2 && s.workloads.size() == 2 &&
        s.workloads[0] != s.workloads[1])
        return RunSpec::mix(s.workloads[0], s.workloads[1], pk, opts);
    if (s.workloads.size() > 1) {
        // Heterogeneous mixes beyond two cores have no RunSpec shape
        // yet; replicated runs cover the true-multicore scenarios.
        fatal("scenario '%s': the sweep engine replicates one "
              "workload across N cores; a %zu-entry heterogeneous "
              "mix on %u cores is only runnable via slip-sim "
              "--scenario",
              s.name.c_str(), s.workloads.size(), cores);
    }
    return RunSpec::replicated(s.workloads[0], cores, pk, opts);
}

void
renderScenarioResults(
    const std::vector<std::pair<Scenario, RunSpec>> &runs,
    const std::vector<std::shared_future<RunResult>> &futures)
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Scenario &s = runs[i].first;
        const RunResult r = futures[i].get();
        std::printf("scenario %s (%s)\n", s.name.c_str(),
                    runs[i].second.key().c_str());
        std::printf("  l2_pj %.6g\n  l3_pj %.6g\n  dram_pj %.6g\n"
                    "  full_system_pj %.6g\n  cycles %.6g\n"
                    "  instructions %.6g\n",
                    r.l2EnergyPj, r.l3EnergyPj, r.dramEnergyPj,
                    r.fullSystemPj, r.cycles, r.instructions);
    }
}

} // namespace

void
registerBenchFigure(const BenchFigure &fig)
{
    registry().push_back(fig);
}

const std::vector<BenchFigure> &
benchFigures()
{
    return registry();
}

int
benchOrchestratorMain(int argc, char **argv)
{
    unsigned jobs = 0;
    bool jobs_set = false;
    bool list_only = false;
    bool progress = true;
    std::string only;
    std::vector<std::string> scenario_paths;
    std::string profile_json;
    std::string trace_out;
    std::string report_dir;
    std::string status_ndjson;
    bool ticker = false;
    std::uint64_t epoch_interval = obs::RunObservation().epochIntervalRefs;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline = true;
            }
        }
        auto value = [&]() -> const char * {
            if (has_inline)
                return inline_value.c_str();
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            jobs = unsigned(std::strtoul(value(), nullptr, 0));
            jobs_set = true;
        } else if (arg == "--only") {
            if (!only.empty())
                only += ",";
            only += value();
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--scenario") {
            scenario_paths.push_back(value());
        } else if (arg == "--refs") {
            ::setenv("SLIP_BENCH_REFS", value(), 1);
        } else if (arg == "--warmup") {
            ::setenv("SLIP_BENCH_WARMUP", value(), 1);
        } else if (arg == "--run-threads") {
            ::setenv("SLIP_RUN_THREADS", value(), 1);
        } else if (arg == "--cache") {
            ::setenv("SLIP_BENCH_CACHE", value(), 1);
        } else if (arg == "--profile") {
            profile_json = value();
        } else if (arg == "--trace-out") {
            trace_out = value();
        } else if (arg == "--epoch-interval") {
            epoch_interval = std::strtoull(value(), nullptr, 0);
            if (epoch_interval == 0)
                fatal("--epoch-interval must be positive");
        } else if (arg == "--report-dir") {
            report_dir = value();
        } else if (arg == "--status-ndjson") {
            status_ndjson = value();
        } else if (arg == "--progress") {
            ticker = true;
        } else if (arg == "--no-progress") {
            progress = false;
            ticker = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    std::vector<std::pair<Scenario, RunSpec>> scenario_runs;
    for (const auto &path : scenario_paths) {
        Scenario s;
        const std::string err = loadScenarioFile(path, s);
        if (!err.empty())
            fatal("%s", err.c_str());
        // Sweep results keep only level 1 and the last level, so a
        // report of a deeper hierarchy would miss its middle levels.
        const std::size_t levels = s.config.hierarchy.levels.size();
        if (!report_dir.empty() && levels > 3)
            fatal("scenario '%s': --report-dir reports cover at most 3 "
                  "cache levels, not %zu; use slip-sim --scenario with "
                  "--report for this hierarchy",
                  s.name.c_str(), levels);
        scenario_runs.emplace_back(s, scenarioRunSpec(s));
    }

    const auto &all = benchFigures();

    if (list_only) {
        for (const auto &f : all)
            std::printf("%-28s %s\n", f.name, f.title);
        return 0;
    }

    // Resolve the figure selection; explicit scenarios replace it.
    std::vector<const BenchFigure *> selected;
    if (!scenario_runs.empty()) {
        // nothing: scenario runs only
    } else if (only.empty()) {
        for (const auto &f : all)
            if (f.byDefault)
                selected.push_back(&f);
    } else {
        std::string rest = only;
        while (!rest.empty()) {
            const auto comma = rest.find(',');
            const std::string name = rest.substr(0, comma);
            rest = comma == std::string::npos ? ""
                                              : rest.substr(comma + 1);
            if (name.empty())
                continue;
            const BenchFigure *found = nullptr;
            for (const auto &f : all)
                if (name == f.name)
                    found = &f;
            if (!found)
                fatal("unknown figure '%s' (see --list)", name.c_str());
            selected.push_back(found);
        }
    }

    if (jobs_set)
        configureSweepRunner(jobs);
    SweepRunner &runner = sweepRunner();

    if (!profile_json.empty()) {
        perf::reset();
        perf::setEnabled(true);
    }
    // --report-dir needs the registry on and an epoch series per run.
    if (!report_dir.empty()) {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
        obs::RunObservation watch;
        watch.collectEpochs = true;
        watch.epochIntervalRefs = epoch_interval;
        obs::setRunObservation(watch);
    }
    if (!trace_out.empty()) {
        obs::resetTrace();
        obs::setTraceEnabled(true);
    }

    std::unique_ptr<StatusStream> status;
    if (!status_ndjson.empty()) {
        std::string err;
        status = StatusStream::open(status_ndjson, &err);
        if (!status)
            fatal("%s", err.c_str());
    }
    StatusStream *ss = status.get();
    if (ss)
        runner.setStart(
            [ss](const std::string &key, const std::string &label) {
                ss->emitStart(key, label);
            });

    if (progress || ss) {
        const std::uint64_t tick0 = obs::monotonicNowNs();
        const bool lines = progress && !ticker;
        const bool tick = progress && ticker;
        runner.setProgress([ss, lines, tick,
                            tick0](const SweepRunner::RunRecord &rec) {
            if (ss)
                ss->emitFinish(rec);
            if (tick) {
                const double elapsed = obs::monotonicSecondsBetween(
                    tick0, obs::monotonicNowNs());
                const double pct =
                    rec.total ? 100.0 * double(rec.done) /
                                    double(rec.total)
                              : 100.0;
                std::fprintf(stderr,
                             "\r[%3zu/%-3zu] %5.1f%%  eta %6.1fs  %-28s",
                             rec.done, rec.total, pct,
                             etaSeconds(rec.done, rec.total, elapsed),
                             rec.label.c_str());
                if (rec.done == rec.total)
                    std::fputc('\n', stderr);
            } else if (lines) {
                std::fprintf(stderr, "[%3zu/%-3zu] %-28s %7.2fs%s\n",
                             rec.done, rec.total, rec.label.c_str(),
                             rec.seconds,
                             rec.cached ? "  (cached)" : "");
            }
        });
    }

    // Phase 1: closure of required runs, executed once, in parallel.
    std::vector<RunSpec> specs;
    for (const auto *f : selected)
        f->plan(specs);
    const std::size_t figure_spec_count = specs.size();
    for (const auto &sr : scenario_runs)
        specs.push_back(sr.second);

    if (ss) {
        // The plan is the deduplicated key set, in first-enqueue
        // order; `slip-report status` checks finish events against it.
        std::vector<std::string> keys;
        std::set<std::string> seen;
        for (const auto &s : specs) {
            std::string k = s.key();
            if (seen.insert(k).second)
                keys.push_back(std::move(k));
        }
        ss->emitPlan(keys, runner.jobs(),
                     SweepOptions().config.runThreads);
    }

    // Per-plan cache accounting: a long-lived process may run several
    // plans; reports should count this plan's traffic only.
    runner.cache().resetStats();

    const std::uint64_t t0 = obs::monotonicNowNs();
    std::vector<std::shared_future<RunResult>> futures;
    futures.reserve(specs.size());
    for (const auto &s : specs)
        futures.push_back(runner.enqueue(s));
    for (auto &f : futures)
        f.wait();
    // Futures become ready before the per-run progress hooks fire;
    // drain the pool so the summary prints after the last of them.
    runner.wait();
    const double wall =
        obs::monotonicSecondsBetween(t0, obs::monotonicNowNs());

    const auto st = runner.stats();
    if (!specs.empty()) {
        std::fprintf(stderr,
                     "sweep: %zu distinct runs (%zu simulated, %zu "
                     "from cache) on %u worker%s in %.2fs wall, "
                     "%.2fs aggregate\n",
                     st.executed + st.cacheHits, st.executed,
                     st.cacheHits, runner.jobs(),
                     runner.jobs() == 1 ? "" : "s", wall,
                     st.simSeconds);
        const ResultCache::Stats cs = runner.cache().stats();
        std::fprintf(stderr,
                     "cache: %llu hits, %llu misses, %llu stored, "
                     "%llu corrupt (key %s)\n",
                     (unsigned long long)cs.hits,
                     (unsigned long long)cs.misses,
                     (unsigned long long)cs.stores,
                     (unsigned long long)cs.corrupt, kCacheKeyVersion);
    }
    if (ss)
        ss->emitDone(st, wall);

    if (!report_dir.empty()) {
        std::map<std::string, std::string> scenario_names;
        for (const auto &sr : scenario_runs)
            scenario_names.emplace(sr.second.key(), sr.first.name);
        writeReports(report_dir, runner, specs, futures, scenario_names,
                     obs::takeEpochSeries());
    }
    if (!trace_out.empty())
        writeTraceJson(trace_out);
    if (!profile_json.empty()) {
        // Counters aggregate across every worker thread and run; all
        // sweep work is done at this point. Cached runs contribute no
        // simulator time, so profile against a cold cache.
        std::ofstream os(profile_json);
        perf::writeJson(os, perf::snapshot());
        if (!os.good())
            warn("could not write profile to %s",
                 profile_json.c_str());
    }

    // Phase 2: render every figure against the memoized sweep.
    int rc = 0;
    if (!scenario_runs.empty()) {
        const std::vector<std::shared_future<RunResult>> sfut(
            futures.begin() +
                static_cast<std::ptrdiff_t>(figure_spec_count),
            futures.end());
        renderScenarioResults(scenario_runs, sfut);
    }
    bool first = true;
    for (const auto *f : selected) {
        if (!first)
            std::printf("\n");
        first = false;
        const int frc = f->render();
        if (frc != 0 && rc == 0)
            rc = frc;
        std::fflush(stdout);
    }
    return rc;
}

} // namespace bench
} // namespace slip
