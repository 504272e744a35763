/**
 * @file
 * slip-perfbench: the measuring half of the simulator benchmark
 * (perfbench/run.py drives it). Each invocation does one unit of work
 * in its own process, so the peak resident set is that unit's alone,
 * and writes one JSON object to the --out file.
 *
 *   slip-perfbench run --scenario F --out R [--stats S]
 *                      [--run-threads N] [--traced 1 --stream NAME
 *                      --work DIR]
 *       One simulation of a scenario file through the entry points a
 *       user calls: loadScenarioFile, validateScenario,
 *       scenarioSystemConfig, System::System, makeMixSource (which
 *       opens a TraceSource for `trace:` workloads) and System::run.
 *       --stats writes the stats dump that run.py compares.
 *   slip-perfbench sweep --cache D --refs N --warmup N --jobs J --out R
 *                        [--traced 1 --scenarios DIR --work DIR]
 *       slip-bench's own main (bench::benchOrchestratorMain) on its
 *       default figure set against result cache D, with the harness's
 *       timing hooks on the sweep runner; the figures go to stdout.
 *   slip-perfbench capture --workload NAME --seed S --refs N --trace T
 *                          --out R
 *       Write NAME's core-0 stream to a SLIPTRC2 trace (an input).
 *   slip-perfbench info --out R
 *       Compiler and build flags, for result provenance.
 *
 * A run's setup_s is the median of kSetupPasses set-ups in the process,
 * each from the start of the workload to the point where its first
 * reference can be simulated; the last one's System runs. A sweep sets
 * up once, from slip-bench's command line to its first run's start.
 * run_s and cpu_s (user + system, all threads) cover the simulation
 * and, for a sweep, the rendering.
 *
 * With --traced 1 the perf phase counters are on and the harness keeps
 * spans around its own calls into each layer. After the measured work
 * it replays the workload's reference stream, regenerated from the
 * same seed, through single layers ("replays"): generator batches, the
 * TLB, L1 batch probes against the warmed hierarchy, PageMap, the
 * pipeline's SPSC queue, SLIPTRC2 open and decode, scenario loading
 * and System construction.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_registry.hh"
#include "mem/trace_io.hh"
#include "perf/perf_counters.hh"
#include "scenario/scenario.hh"
#include "sim/pipeline.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/run_result.hh"
#include "tlb/tlb.hh"
#include "util/flat_map.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

using namespace slip;

namespace {

using Clock = std::chrono::steady_clock;

/** The run loop's chunk size (System::runWindow pulls 256 refs). */
constexpr std::size_t kChunk = 256;

/**
 * Set-ups per run. A single set-up takes about a millisecond, too short
 * to time steadily once; setup_s is the median of these.
 */
constexpr int kSetupPasses = 9;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** User + system CPU seconds of the process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** Peak resident set of the process so far, MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Keeps a value alive so the compiler cannot drop the loop making it. */
volatile std::uint64_t g_sink = 0;

/** `--key value` options after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; i += 2) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc)
                fatal("expected --option value, got '%s'", key.c_str());
            _kv[key.substr(2)] = argv[i + 1];
        }
    }

    bool has(const std::string &k) const { return _kv.count(k) != 0; }

    std::string
    need(const std::string &k) const
    {
        const auto it = _kv.find(k);
        if (it == _kv.end())
            fatal("missing --%s", k.c_str());
        return it->second;
    }

    std::string
    str(const std::string &k, const std::string &fallback = "") const
    {
        const auto it = _kv.find(k);
        return it == _kv.end() ? fallback : it->second;
    }

    std::uint64_t
    u64(const std::string &k, std::uint64_t fallback) const
    {
        const auto it = _kv.find(k);
        return it == _kv.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 0);
    }

  private:
    std::map<std::string, std::string> _kv;
};

/**
 * The harness's spans around its calls into the simulator: name, start
 * and end in ns since the harness started, and the enclosing span (-1
 * at top level). Kept in memory and written out with the result.
 */
class Spans
{
  public:
    class Scope
    {
      public:
        Scope(Spans &spans, std::string name)
            : _spans(spans), _id(spans.open(std::move(name)))
        {}
        ~Scope() { _spans.close(_id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        long id() const { return long(_id); }

      private:
        Spans &_spans;
        std::size_t _id;
    };

    /** A span timed on another thread, caused by span @p parent. */
    void
    add(std::string name, Clock::time_point start, Clock::time_point end,
        long parent)
    {
        _spans.push_back({std::move(name), ns(start), ns(end), parent});
    }

    json::Value
    toJson() const
    {
        json::Value arr = json::Value::array();
        for (const Span &s : _spans) {
            json::Value v = json::Value::object();
            v["name"] = s.name;
            v["start_ns"] = s.startNs;
            v["end_ns"] = s.endNs;
            v["parent"] = s.parent;
            arr.push(std::move(v));
        }
        return arr;
    }

  private:
    struct Span
    {
        std::string name;
        std::uint64_t startNs;
        std::uint64_t endNs;
        long parent;
    };

    std::uint64_t
    ns(Clock::time_point t) const
    {
        return std::uint64_t(nsBetween(_origin, t));
    }

    long parent() const { return _open.empty() ? -1 : long(_open.back()); }

    std::size_t
    open(std::string name)
    {
        const std::uint64_t now = ns(Clock::now());
        _spans.push_back({std::move(name), now, now, parent()});
        _open.push_back(_spans.size() - 1);
        return _spans.size() - 1;
    }

    void
    close(std::size_t id)
    {
        _spans[id].endNs = ns(Clock::now());
        _open.pop_back();
    }

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    std::vector<std::size_t> _open;
};

void
writeJson(const std::string &path, const json::Value &v)
{
    std::ofstream os(path);
    v.write(os, 1);
    os << '\n';
    if (!os.good())
        fatal("cannot write '%s'", path.c_str());
}

SystemConfig
loadConfig(const std::string &path, Scenario &sc)
{
    std::string err = loadScenarioFile(path, sc);
    if (err.empty())
        err = validateScenario(sc);
    if (!err.empty())
        fatal("%s", err.c_str());
    return scenarioSystemConfig(sc);
}

const std::string &
coreWorkload(const Scenario &sc, unsigned core)
{
    return sc.workloads.size() == 1 ? sc.workloads[0]
                                    : sc.workloads[core];
}

json::Value
phasesJson(const perf::PhaseTotals &t)
{
    json::Value v = json::Value::object();
    for (unsigned p = 0; p < perf::kNumPhases; ++p)
        v[perf::phaseName(static_cast<perf::Phase>(p))] = t.ns[p];
    return v;
}

json::Value
levelCountsJson(unsigned index, const std::string &name,
                const CacheLevelStats &s)
{
    json::Value v = json::Value::object();
    v["index"] = index;
    v["name"] = name;
    v["accesses"] = s.demandAccesses + s.metadataAccesses;
    v["hits"] = s.demandHits + s.metadataHits;
    v["fills"] = s.insertions;
    v["movements"] = s.movements;
    v["invalidations"] = s.invalidations;
    return v;
}

/** Exact counts from the public stats accessors after a run. */
json::Value
systemCountsJson(System &sys)
{
    json::Value v = json::Value::object();
    std::uint64_t refs = 0, tlb_accesses = 0, tlb_misses = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        refs += sys.coreStats(c).accesses;
        tlb_accesses += sys.tlb(c).accesses();
        tlb_misses += sys.tlb(c).misses();
    }
    v["measured_refs"] = refs;
    v["tlb_accesses"] = tlb_accesses;
    v["tlb_misses"] = tlb_misses;
    json::Value levels = json::Value::array();
    for (unsigned i = 0; i < sys.numLevels(); ++i)
        levels.push(levelCountsJson(i, sys.levelName(i),
                                    sys.combinedLevelStats(i)));
    v["levels"] = std::move(levels);
    v["coherence_write_probes"] = sys.coherenceWriteProbes();
    v["coherence_invalidations"] = sys.coherenceInvalidations();
    v["dram_lines"] = sys.dram().totalTrafficLines();
    return v;
}

/** One reference stream per replay unit (a core, or a generator). */
using Streams = std::vector<std::vector<MemAccess>>;

/**
 * Regenerate @p refs references of each named source in the run loop's
 * 256-reference nextBatch chunks, timing only the generation.
 */
Streams
generateStreams(const std::vector<std::string> &names,
                const std::vector<unsigned> &cores, std::uint64_t seed,
                std::uint64_t refs, json::Value &out)
{
    Streams st(names.size());
    double ns = 0.0;
    std::uint64_t total = 0;
    for (std::size_t u = 0; u < names.size(); ++u) {
        auto src = makeMixSource(names[u], cores[u], seed);
        std::vector<MemAccess> &s = st[u];
        s.resize(refs);
        std::size_t got = 0;
        const Clock::time_point t0 = Clock::now();
        while (got < refs) {
            const std::size_t n = src->nextBatch(
                s.data() + got, std::min<std::uint64_t>(kChunk, refs - got));
            if (n == 0)
                break;
            got += n;
        }
        ns += nsBetween(t0, Clock::now());
        s.resize(got);
        total += got;
    }
    out["workloads.gen_ns_per_ref"] = total ? ns / double(total) : 0.0;
    out["stream_refs"] = total;
    return st;
}

/** Tlb::lookup/insert/flush on each unit's page stream, with the
 * configured entries and context-switch interval. */
void
replayTlb(const Streams &st, const SystemConfig &cfg, json::Value &out)
{
    std::uint64_t lookups = 0, misses = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto &s : st) {
        Tlb tlb(cfg.tlbEntries);
        std::uint64_t since = 0;
        for (const MemAccess &acc : s) {
            if (cfg.contextSwitchInterval &&
                ++since >= cfg.contextSwitchInterval) {
                tlb.flush();
                since = 0;
            }
            const Addr page = pageAddr(acc.addr);
            Addr evicted = 0;
            if (!tlb.lookup(page))
                tlb.insert(page, evicted);
        }
        lookups += tlb.accesses();
        misses += tlb.misses();
    }
    const double ns = nsBetween(t0, Clock::now());
    g_sink = g_sink + misses;
    out["tlb.ns_per_lookup"] = lookups ? ns / double(lookups) : 0.0;
}

/** CacheLevel::peekBatch over each unit's line stream, in run-loop
 * chunks, against the unit's warmed level-0 cache. */
void
replayPeekBatch(const Streams &st, System &sys, bool one_unit,
                json::Value &out)
{
    std::vector<std::vector<Addr>> lines(st.size());
    for (std::size_t u = 0; u < st.size(); ++u)
        for (const MemAccess &acc : st[u])
            lines[u].push_back(lineAddr(acc.addr));
    std::vector<LookupResult> res(kChunk);
    std::uint64_t probes = 0, hits = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t u = 0; u < lines.size(); ++u) {
        const CacheLevel &l0 =
            sys.level(0, one_unit ? 0 : static_cast<unsigned>(u));
        const std::vector<Addr> &ls = lines[u];
        for (std::size_t off = 0; off < ls.size(); off += kChunk) {
            const std::size_t n = std::min(kChunk, ls.size() - off);
            l0.peekBatch(ls.data() + off, n, res.data());
            for (std::size_t i = 0; i < n; ++i)
                hits += res[i].hit;
            probes += n;
        }
    }
    const double ns = nsBetween(t0, Clock::now());
    g_sink = g_sink + hits;
    out["cache.l1.peek_batch_ns_per_ref"] =
        probes ? ns / double(probes) : 0.0;
}

/** PageMap::getOrCreate then PageMap::find over @p keys. */
void
pageMapPass(const std::vector<Addr> &keys, double &insert_ns,
            double &find_ns)
{
    PageMap<std::uint64_t> map;
    const Clock::time_point t0 = Clock::now();
    for (Addr k : keys)
        ++map.getOrCreate(k, [] { return std::uint64_t{0}; });
    const Clock::time_point t1 = Clock::now();
    std::uint64_t sum = 0;
    for (Addr k : keys)
        if (const std::uint64_t *v = map.find(k))
            sum += *v;
    const Clock::time_point t2 = Clock::now();
    g_sink = g_sink + sum;
    insert_ns += nsBetween(t0, t1);
    find_ns += nsBetween(t1, t2);
}

/** PageMap on the page stream (page table, RD metadata) and, when a
 * level is coherent, on the line stream (the sharer directory). */
void
replayPageMap(const Streams &st, bool coherent, json::Value &out)
{
    std::vector<Addr> pages, lines;
    for (const auto &s : st)
        for (const MemAccess &acc : s) {
            pages.push_back(pageAddr(acc.addr));
            if (coherent)
                lines.push_back(lineAddr(acc.addr));
        }
    double insert_ns = 0.0, find_ns = 0.0;
    pageMapPass(pages, insert_ns, find_ns);
    if (coherent)
        pageMapPass(lines, insert_ns, find_ns);
    const double ops = double(pages.size() + lines.size());
    out["util.pagemap_insert_ns"] = ops ? insert_ns / ops : 0.0;
    out["util.pagemap_find_ns"] = ops ? find_ns / ops : 0.0;
}

/** pipe::SpscQueue push (producer thread) to pop (this thread) of one
 * FrontRef per reference, at the pipelined run's ring capacity. */
void
replaySpsc(const Streams &st, json::Value &out)
{
    std::vector<const MemAccess *> refs;
    for (const auto &s : st)
        for (const MemAccess &acc : s)
            refs.push_back(&acc);
    pipe::SpscQueue queue(2 * kChunk);
    std::uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    std::thread producer([&] {
        for (const MemAccess *acc : refs) {
            pipe::FrontRef fr;
            fr.page = pageAddr(acc->addr);
            fr.line = lineAddr(acc->addr);
            fr.flags = pipe::kRefPresent;
            if (acc->isWrite())
                fr.flags |= pipe::kRefWrite;
            queue.push(fr);
        }
    });
    pipe::FrontRef fr;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        queue.pop(fr);
        sum += fr.line;
    }
    producer.join();
    const double ns = nsBetween(t0, Clock::now());
    g_sink = g_sink + sum;
    out["pipeline.spsc_ns_per_ref"] =
        refs.empty() ? 0.0 : ns / double(refs.size());
}

/** Write the first unit's stream as a gzip SLIPTRC2 trace, then time
 * TraceSource::open (median of five) and one full decode pass. */
void
replayTrace(const Streams &st, const std::string &path, json::Value &out)
{
    std::string err;
    auto writer = TraceWriter::create(path, TraceFormat::Sliptrc2, 1, &err);
    if (!writer)
        fatal("%s", err.c_str());
    for (const MemAccess &acc : st.at(0))
        writer->append(acc);
    err = writer->close();
    if (!err.empty())
        fatal("%s", err.c_str());

    std::vector<double> open_ms;
    for (int k = 0; k < 5; ++k) {
        const Clock::time_point t0 = Clock::now();
        auto src = TraceSource::open(path, 0, false, &err);
        open_ms.push_back(nsBetween(t0, Clock::now()) * 1e-6);
        if (!src)
            fatal("%s", err.c_str());
    }
    out["mem.open_ms"] = median(open_ms);

    auto src = TraceSource::open(path, 0, false, &err);
    if (!src)
        fatal("%s", err.c_str());
    std::vector<MemAccess> buf(kChunk);
    std::uint64_t decoded = 0, sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t n; (n = src->nextBatch(buf.data(), kChunk)) > 0;) {
        decoded += n;
        sum += buf[0].addr;
    }
    const double ns = nsBetween(t0, Clock::now());
    g_sink = g_sink + sum;
    if (decoded != st[0].size())
        fatal("trace replay decoded %llu of %zu records",
              static_cast<unsigned long long>(decoded), st[0].size());
    out["mem.decode_ns_per_ref"] = decoded ? ns / double(decoded) : 0.0;
}

/** loadScenarioFile + validateScenario + scenarioSystemConfig, and
 * System::System, over @p paths (each @p reps times); medians. */
void
replayLoadConstruct(const std::vector<std::string> &paths, int reps,
                    json::Value &out)
{
    std::vector<double> load_ms, construct_ms;
    for (int r = 0; r < reps; ++r)
        for (const std::string &path : paths) {
            Scenario sc;
            const Clock::time_point t0 = Clock::now();
            const SystemConfig cfg = loadConfig(path, sc);
            const Clock::time_point t1 = Clock::now();
            auto sys = std::make_unique<System>(cfg);
            const Clock::time_point t2 = Clock::now();
            load_ms.push_back(nsBetween(t0, t1) * 1e-6);
            construct_ms.push_back(nsBetween(t1, t2) * 1e-6);
        }
    out["scenario.load_ms"] = median(load_ms);
    out["sim.construct_ms"] = median(construct_ms);
}

/** Every single-layer replay on @p st, each inside its own span. */
json::Value
replayLayers(const Streams &st, System &sys, bool one_unit,
             const std::vector<std::string> &scenario_paths, int reps,
             const std::string &work_dir, Spans &spans, json::Value out)
{
    {
        Spans::Scope s(spans, "replay.tlb");
        replayTlb(st, sys.config(), out);
    }
    {
        Spans::Scope s(spans, "replay.cache.peek_batch");
        replayPeekBatch(st, sys, one_unit, out);
    }
    {
        Spans::Scope s(spans, "replay.util.pagemap");
        replayPageMap(st, sys.coherenceEnabled(), out);
    }
    {
        Spans::Scope s(spans, "replay.pipeline.spsc");
        replaySpsc(st, out);
    }
    {
        Spans::Scope s(spans, "replay.mem.trace");
        replayTrace(st, work_dir + "/replay.trc2.gz", out);
    }
    {
        Spans::Scope s(spans, "replay.scenario_and_construct");
        replayLoadConstruct(scenario_paths, reps, out);
    }
    return out;
}

int
cmdRun(const Args &args)
{
    const bool traced = args.u64("traced", 0) != 0;
    Spans spans;
    if (traced) {
        perf::reset();
        perf::setEnabled(true);
    }

    Scenario sc;
    SystemConfig cfg;
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    std::vector<double> setup_s;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        // Each pass starts from nothing; the previous one is torn down
        // outside the timed interval.
        sources.clear();
        owned.clear();
        sys.reset();
        sc = Scenario();
        const Clock::time_point t0 = Clock::now();
        {
            Spans::Scope s(spans, "scenario.load");
            cfg = loadConfig(args.need("scenario"), sc);
        }
        if (args.has("run-threads"))
            cfg.runThreads = unsigned(args.u64("run-threads", 1));
        if (sc.refs == 0)
            fatal("scenario must set refs");
        {
            Spans::Scope s(spans, "sim.construct");
            sys = std::make_unique<System>(cfg);
        }
        {
            Spans::Scope s(spans, "workloads.open_sources");
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                owned.push_back(makeMixSource(coreWorkload(sc, c), c,
                                              sc.workloadSeed));
                sources.push_back(owned.back().get());
            }
        }
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    const Clock::time_point t1 = Clock::now();
    const double cpu0 = cpuSeconds();
    {
        Spans::Scope s(spans, "sim.run");
        sys->run(sources, sc.refs, sc.warmup);
    }
    const Clock::time_point t2 = Clock::now();
    const double cpu1 = cpuSeconds();
    const double rss = peakRssMb();
    const perf::PhaseTotals phases = perf::snapshot();
    perf::setEnabled(false);

    json::Value out = json::Value::object();
    out["setup_s"] = median(setup_s);
    out["run_s"] = secondsBetween(t1, t2);
    out["cpu_s"] = cpu1 - cpu0;
    out["peak_rss_mb"] = rss;
    out["refs"] = (sc.refs + sc.warmup) * cfg.numCores;
    out["cores"] = cfg.numCores;
    out["run_threads"] = cfg.runThreads;

    if (args.has("stats")) {
        std::ofstream os(args.need("stats"));
        dumpStats(*sys, os);
        if (!os.good())
            fatal("cannot write stats");
    }

    if (traced) {
        out["phases"] = phasesJson(phases);
        out["counts"] = systemCountsJson(*sys);
        // The reference stream again, from the same seed: the stream's
        // own generator for `trace:` workloads comes from --stream.
        std::vector<std::string> names;
        std::vector<unsigned> cores;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            names.push_back(args.str("stream", coreWorkload(sc, c)));
            cores.push_back(c);
        }
        Streams st;
        json::Value replays = json::Value::object();
        {
            Spans::Scope s(spans, "replay.workloads.generate");
            st = generateStreams(names, cores, sc.workloadSeed,
                                 sc.refs + sc.warmup, replays);
        }
        out["replays"] = replayLayers(st, *sys, false,
                                      {args.need("scenario")}, 10,
                                      args.need("work"), spans,
                                      std::move(replays));
        out["spans"] = spans.toJson();
    }
    writeJson(args.need("out"), out);
    return 0;
}

int
cmdSweep(const Args &args)
{
    // slip-bench's run length and result cache, in the environment it
    // reads them from. They are set before the hooks below build the
    // runner: its workers read the environment as they start, so a
    // later setenv (slip-bench's --refs, say) would race with them.
    ::setenv("SLIP_BENCH_REFS", args.need("refs").c_str(), 1);
    ::setenv("SLIP_BENCH_WARMUP", args.need("warmup").c_str(), 1);
    ::setenv("SLIP_BENCH_CACHE", args.need("cache").c_str(), 1);
    const bool traced = args.u64("traced", 0) != 0;
    const unsigned jobs = unsigned(args.u64("jobs", 4));
    Spans spans;

    // Per-run start/finish times from the runner's hooks, which it
    // serializes on its own mutex; ours guards the reads below.
    std::mutex mu;
    std::optional<Clock::time_point> first_start;
    Clock::time_point last_finish;
    double cpu_at_start = 0.0;
    std::map<std::string, std::pair<Clock::time_point, Clock::time_point>>
        run_times;
    std::map<std::string, std::string> labels;

    // Set-up starts before the runner exists: slip-bench also builds it,
    // workers included, between its start and its first run.
    const Clock::time_point t0 = Clock::now();
    // slip-bench sets hooks of its own only for status or progress
    // output, so with --no-progress these stay in place.
    bench::configureSweepRunner(jobs);
    SweepRunner &runner = bench::sweepRunner();
    runner.setStart([&](const std::string &key, const std::string &label) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        if (!first_start) {
            first_start = now;
            cpu_at_start = cpuSeconds();
        }
        run_times[key].first = now;
        labels[key] = label;
    });
    runner.setProgress([&](const SweepRunner::RunRecord &rec) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        run_times[rec.key].second = now;
        last_finish = now;
    });

    // slip-bench's command line for its default figure set; --profile
    // turns the perf phase counters on.
    std::vector<std::string> cli = {"slip-bench", "--jobs",
                                    std::to_string(jobs), "--no-progress"};
    if (traced)
        cli.insert(cli.end(),
                   {"--profile", args.need("work") + "/profile.json"});
    std::vector<char *> argv;
    for (std::string &a : cli)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int rc = 0;
    long main_span = -1;
    {
        Spans::Scope s(spans, "slip_bench.main");
        main_span = s.id();
        rc = bench::benchOrchestratorMain(int(cli.size()), argv.data());
    }
    const Clock::time_point t2 = Clock::now();
    const double cpu1 = cpuSeconds();
    const double rss = peakRssMb();
    const perf::PhaseTotals phases = perf::snapshot();
    perf::setEnabled(false);
    const SweepRunner::Stats st = runner.stats();
    // The hooks capture this frame; the runner outlives it.
    runner.setStart(nullptr);
    runner.setProgress(nullptr);

    // Every figure's plan: each run's references and core count.
    std::vector<RunSpec> specs;
    for (const auto &f : bench::benchFigures())
        f.plan(specs);
    std::map<std::string, const RunSpec *> by_key;
    for (const RunSpec &s : specs)
        by_key.emplace(s.key(), &s);

    std::lock_guard<std::mutex> lock(mu);
    if (!first_start)
        fatal("the sweep started no run");
    std::uint64_t refs = 0;
    json::Value run_seconds = json::Value::array();
    for (const SweepRunner::RunRecord &rec : runner.records()) {
        const auto it = by_key.find(rec.key);
        if (it == by_key.end())
            fatal("run %s was not in the figure plan", rec.label.c_str());
        run_seconds.push(rec.seconds);
        if (!rec.cached)
            refs += (it->second->opts.refs + it->second->opts.warmup) *
                    it->second->numCores();
    }

    json::Value out = json::Value::object();
    out["setup_s"] = secondsBetween(t0, *first_start);
    out["run_s"] = secondsBetween(*first_start, t2);
    out["cpu_s"] = cpu1 - cpu_at_start;
    out["peak_rss_mb"] = rss;
    out["refs"] = refs;
    out["jobs"] = runner.jobs();
    out["sweep_wall_s"] = secondsBetween(*first_start, last_finish);
    out["run_seconds"] = std::move(run_seconds);
    out["runs_executed"] = std::uint64_t(st.executed);
    out["cache_hits"] = std::uint64_t(st.cacheHits);
    out["memo_hits"] = std::uint64_t(st.memoHits);
    out["render_rc"] = rc;

    if (traced) {
        out["phases"] = phasesJson(phases);
        for (const auto &[key, times] : run_times)
            spans.add("sweep.run " + labels[key], times.first,
                      times.second, main_span);

        // Counts summed over the distinct runs' results (RunResult
        // carries the outer levels, not level 0).
        CacheLevelStats l2, l3;
        double tlb_misses = 0, dram_lines = 0;
        std::uint64_t measured = 0;
        for (const auto &[key, spec] : by_key) {
            const RunResult r = runner.run(*spec);
            for (auto [sum, part] : {std::pair{&l2, &r.l2},
                                     std::pair{&l3, &r.l3}}) {
                sum->demandAccesses += part->demandAccesses;
                sum->metadataAccesses += part->metadataAccesses;
                sum->demandHits += part->demandHits;
                sum->metadataHits += part->metadataHits;
                sum->insertions += part->insertions;
                sum->movements += part->movements;
                sum->invalidations += part->invalidations;
            }
            tlb_misses += r.tlbMisses;
            dram_lines += r.dramTrafficLines;
            measured += spec->opts.refs * spec->numCores();
        }
        json::Value counts = json::Value::object();
        counts["measured_refs"] = measured;
        counts["tlb_accesses"] = measured;
        counts["tlb_misses"] = tlb_misses;
        json::Value levels = json::Value::array();
        levels.push(levelCountsJson(1, "l2", l2));
        levels.push(levelCountsJson(2, "l3", l3));
        counts["levels"] = std::move(levels);
        counts["coherence_write_probes"] = 0;
        counts["coherence_invalidations"] = 0;
        counts["dram_lines"] = dram_lines;
        out["counts"] = std::move(counts);

        // Replays on every generator's stream at the sweep's length,
        // against a classic Table 1 machine warmed on the first one.
        const std::uint64_t len =
            args.u64("refs", 0) + args.u64("warmup", 0);
        const std::vector<std::string> &names = specBenchmarks();
        Streams streams;
        json::Value replays = json::Value::object();
        {
            Spans::Scope s(spans, "replay.workloads.generate");
            streams = generateStreams(
                names, std::vector<unsigned>(names.size(), 0), 0, len,
                replays);
        }
        System sys{SystemConfig()};
        TraceBuffer warm(streams.at(0));
        sys.run({&warm}, streams[0].size(), 0);
        std::vector<std::string> scenario_paths;
        for (const auto &f : bench::benchFigures()) {
            const std::string p =
                args.need("scenarios") + "/" + f.name + ".json";
            if (std::ifstream(p).good())
                scenario_paths.push_back(p);
        }
        out["replays"] = replayLayers(streams, sys, true, scenario_paths,
                                      1, args.need("work"), spans,
                                      std::move(replays));
        out["spans"] = spans.toJson();
    }
    writeJson(args.need("out"), out);
    return rc;
}

int
cmdCapture(const Args &args)
{
    const std::string err = captureWorkloadTrace(
        args.need("workload"), 1, args.u64("refs", 0),
        args.u64("seed", 0), args.need("trace"));
    if (!err.empty())
        fatal("%s", err.c_str());
    json::Value out = json::Value::object();
    out["records"] = args.u64("refs", 0);
    writeJson(args.need("out"), out);
    return 0;
}

int
cmdInfo(const Args &args)
{
    json::Value out = json::Value::object();
    out["compiler"] = PERFBENCH_COMPILER;
    out["build_type"] = PERFBENCH_BUILD_TYPE;
    out["cxx_flags"] = PERFBENCH_CXX_FLAGS;
    writeJson(args.need("out"), out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s run|sweep|capture|info --option value ...\n",
                     argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "capture")
        return cmdCapture(args);
    if (cmd == "info")
        return cmdInfo(args);
    fatal("unknown subcommand '%s'", cmd.c_str());
}
