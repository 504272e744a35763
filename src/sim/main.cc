/**
 * @file
 * slip-sim: command-line driver for the simulator.
 *
 * Runs one workload (a named SPEC-like benchmark or a trace file)
 * under one policy and dumps the full statistics, so the simulator is
 * usable without writing any C++.
 *
 *   slip-sim --bench soplex --policy slip+abp --refs 2000000
 *   slip-sim --trace capture.trc --policy baseline --stats out.txt
 *   slip-sim --list
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "mem/trace_io.hh"
#include "obs/epoch_series.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "scenario/scenario.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/run_spec.hh"
#include "workloads/spec_suite.hh"

using namespace slip;

namespace {

void
usage()
{
    std::puts(
        "slip-sim — SLIP cache-hierarchy simulator (ISCA 2015)\n"
        "\n"
        "  --bench NAME        workload from the SPEC-like suite\n"
        "  --trace FILE        drive from a trace file instead\n"
        "                      (SLIPTRC2/SLIPTRC1/text, plain or\n"
        "                      .gz; multicore SLIPTRC2 demuxes per\n"
        "                      core — see slip-trace)\n"
        "  --scenario FILE     load a declarative JSON scenario\n"
        "                      (hierarchy, policy, workloads; see\n"
        "                      scenarios/README.md). --refs/--warmup/\n"
        "                      --seed/--run-threads and the output\n"
        "                      flags still apply on top; system\n"
        "                      flags (--policy, --cores, --tech, ...)\n"
        "                      are rejected: edit the scenario\n"
        "  --loop-trace        loop the trace when exhausted\n"
        "  --policy P          baseline | nurapid | lru-pea | slip |\n"
        "                      slip+abp           (default baseline)\n"
        "  --refs N            measured references (default 2000000)\n"
        "  --warmup N          warm-up references (default = refs)\n"
        "  --cores N           cores (same workload, offset address\n"
        "                      spaces; default 1)\n"
        "  --run-threads N     pipeline threads inside the run\n"
        "                      (stats are byte-identical for any N;\n"
        "                      default 1 = serial)\n"
        "  --tech T            45nm | 22nm       (default 45nm)\n"
        "  --topology T        way | set | htree (default way)\n"
        "  --repl R            lru | rrip | random\n"
        "  --rd-bits N         distribution counter width (default 4)\n"
        "  --rd-block-pages N  pages per rd-block (default 1)\n"
        "  --always-sample     disable time-based sampling (Section\n"
        "                      4.1's always-fetch design)\n"
        "  --inclusive-l3      inclusive LLC (disables ABP at L3)\n"
        "  --no-insertion-term strict Equations 1-4 EOU coefficients\n"
        "  --seed N            simulation seed\n"
        "  --stats FILE        write the stats dump to FILE\n"
        "  --report FILE       write a slip-report-v1 run report to\n"
        "                      FILE (provenance + energy ledger +\n"
        "                      metrics + epoch series; diffable with\n"
        "                      slip-report)\n"
        "  --trace-out FILE    enable the decision tracer and write a\n"
        "                      Chrome/Perfetto trace-event JSON\n"
        "  --epoch-interval N  epoch length in references for the\n"
        "                      --report energy series (default 50000)\n"
        "  --list              list available benchmarks\n"
        "All options also accept the --flag=value form.\n");
}

/**
 * Flags that configure the system, each with the scenario key that
 * configures the same thing. A scenario describes the whole system,
 * so --scenario rejects them.
 */
const std::map<std::string, const char *> kSystemFlags = {
    {"--policy", "policy"},
    {"--cores", "cores"},
    {"--tech", "tech"},
    {"--topology", "topology"},
    {"--repl", "repl"},
    {"--rd-bits", "rd_bin_bits"},
    {"--rd-block-pages", "rd_block_pages"},
    {"--always-sample", "sampling"},
    {"--inclusive-l3", "inclusive_llc"},
    {"--no-insertion-term", "eou_include_insertion"},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string benchn, trace_path, scenario_path, stats_path,
        report_path, trace_out_path;
    bool loop_trace = false;
    bool refs_set = false, warmup_set = false, seed_set = false;
    unsigned run_threads = 0;  // 0 = not given on the command line
    std::uint64_t refs = 2'000'000;
    std::uint64_t warmup = ~0ull;
    std::uint64_t epoch_interval =
        obs::RunObservation().epochIntervalRefs;
    SystemConfig cfg;
    std::string system_flag;  // the first of kSystemFlags given

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--flag value" and "--flag=value" (parity with
        // slip-bench).
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
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (kSystemFlags.count(arg) && system_flag.empty())
            system_flag = arg;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const auto &n : specBenchmarks())
                std::puts(n.c_str());
            return 0;
        } else if (arg == "--bench") {
            benchn = value();
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--scenario") {
            scenario_path = value();
        } else if (arg == "--loop-trace") {
            loop_trace = true;
        } else if (arg == "--policy") {
            if (!parsePolicyKind(value(), cfg.policy))
                fatal("unknown policy (see --help)");
        } else if (arg == "--refs") {
            refs = std::strtoull(value().c_str(), nullptr, 0);
            refs_set = true;
        } else if (arg == "--warmup") {
            warmup = std::strtoull(value().c_str(), nullptr, 0);
            warmup_set = true;
        } else if (arg == "--cores") {
            cfg.numCores =
                unsigned(std::strtoul(value().c_str(), nullptr, 0));
        } else if (arg == "--run-threads") {
            run_threads =
                unsigned(std::strtoul(value().c_str(), nullptr, 0));
            if (run_threads == 0)
                fatal("--run-threads must be positive");
        } else if (arg == "--tech") {
            const std::string t = value();
            if (t == "45nm")
                cfg.tech = tech45nm();
            else if (t == "22nm")
                cfg.tech = tech22nm();
            else
                fatal("unknown tech node '%s'", t.c_str());
        } else if (arg == "--topology") {
            const std::string t = value();
            if (!parseTopologyKind(t, cfg.topology))
                fatal("unknown topology '%s'", t.c_str());
        } else if (arg == "--repl") {
            const std::string r = value();
            if (!parseReplKind(r, cfg.repl))
                fatal("unknown replacement '%s'", r.c_str());
            // The paper's Section 7 variant pairs RRIP with the
            // randomized sublevel victim.
            if (cfg.repl == ReplKind::Rrip)
                cfg.randomSublevelVictim = true;
        } else if (arg == "--rd-bits") {
            cfg.rdBinBits =
                unsigned(std::strtoul(value().c_str(), nullptr, 0));
        } else if (arg == "--rd-block-pages") {
            cfg.rdBlockPages =
                unsigned(std::strtoul(value().c_str(), nullptr, 0));
        } else if (arg == "--always-sample") {
            cfg.samplingMode = SamplingMode::Always;
        } else if (arg == "--inclusive-l3") {
            cfg.inclusiveL3 = true;
        } else if (arg == "--no-insertion-term") {
            cfg.eouIncludeInsertion = false;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value().c_str(), nullptr, 0);
            seed_set = true;
        } else if (arg == "--stats") {
            stats_path = value();
        } else if (arg == "--report") {
            report_path = value();
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--epoch-interval") {
            epoch_interval =
                std::strtoull(value().c_str(), nullptr, 0);
            if (epoch_interval == 0)
                fatal("--epoch-interval must be positive");
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    Scenario scenario;
    if (!scenario_path.empty()) {
        if (!benchn.empty() || !trace_path.empty())
            fatal("--scenario is exclusive with --bench/--trace");
        if (!system_flag.empty())
            fatal("%s is exclusive with --scenario; set \"%s\" in %s "
                  "instead",
                  system_flag.c_str(), kSystemFlags.at(system_flag),
                  scenario_path.c_str());
        if (loop_trace)
            fatal("--loop-trace is exclusive with --scenario; a "
                  "scenario's trace: workloads always loop");
        const std::string err =
            loadScenarioFile(scenario_path, scenario);
        if (!err.empty())
            fatal("%s", err.c_str());
        const std::uint64_t cli_seed = cfg.seed;
        cfg = scenarioSystemConfig(scenario);
        if (seed_set)
            cfg.seed = cli_seed;
        if (!refs_set && scenario.refs)
            refs = scenario.refs;
        if (!warmup_set)
            warmup = scenario.refs ? scenario.warmup : ~0ull;
    } else if (benchn.empty() && trace_path.empty()) {
        fatal("need --bench, --trace, or --scenario (see --help)");
    }
    if (warmup == ~0ull)
        warmup = refs;
    // The CLI wins over a scenario's run_threads hint (like --seed).
    if (run_threads)
        cfg.runThreads = run_threads;

    // The report carries the per-cause energy ledger and the metrics
    // snapshot, which are only accumulated while the metrics registry
    // is live.
    if (!report_path.empty())
        obs::setMetricsEnabled(true);
    if (!trace_out_path.empty()) {
        obs::resetTrace();
        obs::setTraceEnabled(true);
    }
    // The report carries an epoch energy series when the interval
    // divides into the run.
    if (!report_path.empty())
        cfg.epochIntervalRefs = epoch_interval;

    System sys(cfg);

    obs::EpochSeries epoch_series;
    if (!report_path.empty()) {
        epoch_series.intervalRefs = epoch_interval;
        sys.setEpochSink(&epoch_series);
    }

    // One source per core.
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!trace_path.empty()) {
            std::string terr;
            auto ts = TraceSource::open(trace_path, c, loop_trace,
                                        &terr);
            if (!ts)
                fatal("%s", terr.c_str());
            owned.push_back(std::move(ts));
        } else if (!scenario_path.empty()) {
            const std::string &name =
                scenario.workloads.size() == 1 ? scenario.workloads[0]
                                               : scenario.workloads[c];
            owned.push_back(
                makeMixSource(name, c, scenario.workloadSeed));
        } else {
            owned.push_back(makeMixSource(benchn, c, cfg.seed));
        }
        sources.push_back(owned.back().get());
    }

    const std::string what = !scenario_path.empty()
                                 ? "scenario " + scenario.name
                                 : trace_path.empty() ? benchn
                                                      : trace_path;
    inform("running %s / %s: %llu refs after %llu warm-up on %u "
           "core(s)",
           what.c_str(),
           policyName(cfg.policy),
           static_cast<unsigned long long>(refs),
           static_cast<unsigned long long>(warmup), cfg.numCores);
    const std::uint64_t run_t0 = obs::monotonicNowNs();
    sys.run(sources, refs, warmup);
    const double run_seconds =
        obs::monotonicSecondsBetween(run_t0, obs::monotonicNowNs());

    if (!stats_path.empty()) {
        std::ofstream os(stats_path);
        if (!os)
            fatal("cannot write stats to '%s'", stats_path.c_str());
        dumpStats(sys, os);
        inform("stats written to %s", stats_path.c_str());
    } else {
        dumpStats(sys, std::cout);
    }

    if (!report_path.empty()) {
        sys.setEpochSink(nullptr);

        obs::RunReportData report;
        obs::ReportProvenance &prov = report.provenance;
        const std::string workload =
            !scenario_path.empty() ? [&] {
                std::string w;
                for (const auto &name : scenario.workloads)
                    w += (w.empty() ? "" : "+") + name;
                return w;
            }()
            : !trace_path.empty() ? "trace:" + trace_path
                                  : benchn;
        // Descriptive, filename-safe run id (slip-sim runs have no
        // sweep cache key).
        std::string key = "sim_" + workload + "_" +
                          policyCliName(cfg.policy);
        for (char &c : key)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '.' && c != '_' && c != '-')
                c = '-';
        prov.runKey = key;
        prov.label = workload;
        prov.policy = policyCliName(cfg.policy);
        prov.workload = workload;
        prov.scenario = scenario.name;
        prov.hierarchyKey = cfg.hierarchy.key();
        prov.cacheKeyVersion = kCacheKeyVersion;
        if (!trace_path.empty()) {
            std::string herr;
            const std::uint64_t h = traceFileHash(trace_path, &herr);
            if (herr.empty()) {
                std::ostringstream hs;
                hs << std::hex << h;
                prov.traceHash = hs.str();
            }
        }
        prov.runThreads = cfg.runThreads;
        prov.refs = refs;
        prov.warmup = warmup;

        // Outer cache levels (level 0 is the L1, reported as a
        // single energy figure like the sweep results).
        for (unsigned i = 1; i < sys.numLevels(); ++i) {
            obs::ReportLevelEnergy lvl;
            lvl.name = sys.levelName(i);
            const CacheLevelStats s = sys.combinedLevelStats(i);
            for (unsigned e = 0; e < s.energyPj.size(); ++e)
                lvl.segmentsPj[e] = s.energyPj[e];
            lvl.causesPj = s.causePj;
            report.levels.push_back(std::move(lvl));
        }
        report.corePj =
            sys.instructions() * cfg.tech.corePjPerInstr;
        report.l1Pj = sys.l1EnergyPj();
        report.dramDemandPj = sys.dram().demandEnergyPj();
        report.dramMetadataPj = sys.dram().metadataEnergyPj();
        report.dramTotalPj = sys.dram().energyPj();
        report.fullSystemPj = sys.fullSystemEnergyPj();

        report.cycles = sys.totalCycles();
        report.instructions = sys.instructions();
        report.dramReads = double(sys.dram().reads());
        report.dramWrites = double(sys.dram().writes());
        report.dramMetaAccesses =
            double(sys.dram().metadataAccesses());
        report.dramTrafficLines = sys.dram().totalTrafficLines();
        for (unsigned c = 0; c < sys.numCores(); ++c)
            report.tlbMisses += double(sys.tlb(c).misses());
        report.eouOps = double(sys.eouOperations());

        if (!epoch_series.records.empty()) {
            epoch_series.label = prov.runKey;
            report.epochs = obs::epochSeriesJson(epoch_series);
        }
        report.hasTiming = true;
        report.seconds = run_seconds;
        report.cached = false;
        report.metrics = obs::metricsJson();

        std::ofstream os(report_path);
        if (!os)
            fatal("cannot write report to '%s'", report_path.c_str());
        obs::reportJson(report).write(os);
        os << '\n';
        inform("run report written to %s", report_path.c_str());
    }
    if (!trace_out_path.empty()) {
        std::ofstream os(trace_out_path);
        if (!os)
            fatal("cannot write trace to '%s'",
                  trace_out_path.c_str());
        obs::writeChromeJson(os);
        inform("decision trace written to %s",
               trace_out_path.c_str());
    }
    return 0;
}
