#include "sweep/run_result.hh"

#include <map>
#include <ostream>
#include <sstream>

#include "obs/epoch_series.hh"
#include "obs/trace.hh"
#include "workloads/spec_suite.hh"

namespace slip {

namespace {

void
putStats(std::ostream &os, const char *prefix, const CacheLevelStats &s)
{
    os << prefix << ".acc " << s.demandAccesses << "\n";
    os << prefix << ".hit " << s.demandHits << "\n";
    os << prefix << ".macc " << s.metadataAccesses << "\n";
    os << prefix << ".mhit " << s.metadataHits << "\n";
    for (unsigned i = 0; i < kNumSublevels; ++i) {
        os << prefix << ".slh" << i << " " << s.sublevelHits[i] << "\n";
        os << prefix << ".sli" << i << " " << s.sublevelInsertions[i]
           << "\n";
    }
    os << prefix << ".ins " << s.insertions << "\n";
    os << prefix << ".byp " << s.bypasses << "\n";
    for (unsigned i = 0; i < s.insertClass.size(); ++i)
        os << prefix << ".ic" << i << " " << s.insertClass[i] << "\n";
    os << prefix << ".mov " << s.movements << "\n";
    os << prefix << ".wb " << s.writebacks << "\n";
    os << prefix << ".inv " << s.invalidations << "\n";
    for (unsigned i = 0; i < 4; ++i)
        os << prefix << ".rh" << i << " " << s.reuseHistogram[i] << "\n";
    for (unsigned i = 0; i < s.energyPj.size(); ++i)
        os << prefix << ".e" << i << " " << s.energyPj[i] << "\n";
    for (unsigned i = 0; i < obs::kNumEnergyCauses; ++i)
        os << prefix << ".ec" << i << " " << s.causePj[i] << "\n";
    os << prefix << ".pbc " << s.portBusyCycles << "\n";
}

CacheLevelStats
getStats(const std::map<std::string, double> &kv, const std::string &p)
{
    auto g = [&](const std::string &k) {
        auto it = kv.find(p + "." + k);
        return it == kv.end() ? 0.0 : it->second;
    };
    CacheLevelStats s;
    s.demandAccesses = std::uint64_t(g("acc"));
    s.demandHits = std::uint64_t(g("hit"));
    s.metadataAccesses = std::uint64_t(g("macc"));
    s.metadataHits = std::uint64_t(g("mhit"));
    for (unsigned i = 0; i < kNumSublevels; ++i) {
        s.sublevelHits[i] = std::uint64_t(g("slh" + std::to_string(i)));
        s.sublevelInsertions[i] =
            std::uint64_t(g("sli" + std::to_string(i)));
    }
    s.insertions = std::uint64_t(g("ins"));
    s.bypasses = std::uint64_t(g("byp"));
    for (unsigned i = 0; i < s.insertClass.size(); ++i)
        s.insertClass[i] = std::uint64_t(g("ic" + std::to_string(i)));
    s.movements = std::uint64_t(g("mov"));
    s.writebacks = std::uint64_t(g("wb"));
    s.invalidations = std::uint64_t(g("inv"));
    for (unsigned i = 0; i < 4; ++i)
        s.reuseHistogram[i] = std::uint64_t(g("rh" + std::to_string(i)));
    for (unsigned i = 0; i < s.energyPj.size(); ++i)
        s.energyPj[i] = g("e" + std::to_string(i));
    for (unsigned i = 0; i < obs::kNumEnergyCauses; ++i)
        s.causePj[i] = g("ec" + std::to_string(i));
    s.portBusyCycles = Cycles(g("pbc"));
    return s;
}

/**
 * The spec's config with what the RunSpec owns (the policy and the
 * core count) and the run observation's epoch interval filled in.
 * Observation settings live outside the spec (and its cache key):
 * epoch accounting reads simulation state but never changes it.
 */
SystemConfig
runConfig(const RunSpec &spec)
{
    SystemConfig cfg = spec.opts.config;
    cfg.policy = spec.policy;
    cfg.numCores = spec.numCores();
    const obs::RunObservation watch = obs::runObservation();
    cfg.epochIntervalRefs =
        watch.collectEpochs ? watch.epochIntervalRefs : 0;
    return cfg;
}

RunResult
extract(System &sys)
{
    RunResult r;
    r.l2 = sys.combinedL2Stats();
    // Slice-combined: for a sliced LLC this folds every NUCA slice
    // into one stats block (identical to sys.l3().stats() when the
    // level has a single unit).
    r.l3 = sys.combinedLevelStats(sys.numLevels() - 1);
    r.l2EnergyPj = sys.l2EnergyPj();
    r.l3EnergyPj = sys.l3EnergyPj();
    r.l1EnergyPj = sys.l1EnergyPj();
    r.fullSystemPj = sys.fullSystemEnergyPj();
    r.cycles = sys.totalCycles();
    r.instructions = sys.instructions();
    r.dramReads = double(sys.dram().reads());
    r.dramWrites = double(sys.dram().writes());
    r.dramMetaAccesses = double(sys.dram().metadataAccesses());
    r.dramTrafficLines = sys.dram().totalTrafficLines();
    r.dramEnergyPj = sys.dram().energyPj();
    r.dramDemandPj = sys.dram().demandEnergyPj();
    r.dramMetadataPj = sys.dram().metadataEnergyPj();
    for (unsigned c = 0; c < sys.numCores(); ++c)
        r.tlbMisses += double(sys.tlb(c).misses());
    r.eouOps = double(sys.eouOperations());
    return r;
}

} // namespace

void
serializeRunResult(std::ostream &os, const RunResult &r)
{
    os.precision(17);
    putStats(os, "l2", r.l2);
    putStats(os, "l3", r.l3);
    os << "l2pj " << r.l2EnergyPj << "\n";
    os << "l3pj " << r.l3EnergyPj << "\n";
    os << "l1pj " << r.l1EnergyPj << "\n";
    os << "fullpj " << r.fullSystemPj << "\n";
    os << "cycles " << r.cycles << "\n";
    os << "instr " << r.instructions << "\n";
    os << "dramr " << r.dramReads << "\n";
    os << "dramw " << r.dramWrites << "\n";
    os << "dramm " << r.dramMetaAccesses << "\n";
    os << "dramt " << r.dramTrafficLines << "\n";
    os << "drampj " << r.dramEnergyPj << "\n";
    os << "dramdpj " << r.dramDemandPj << "\n";
    os << "drammpj " << r.dramMetadataPj << "\n";
    os << "tlbm " << r.tlbMisses << "\n";
    os << "eou " << r.eouOps << "\n";
    os << "end 1\n";
}

bool
parseRunResult(std::istream &is, RunResult &r)
{
    std::map<std::string, double> kv;
    std::string k;
    double v;
    while (is >> k >> v)
        kv[k] = v;
    // A record is valid only if the final marker made it to disk;
    // anything else is a truncated or foreign file.
    if (kv.find("end") == kv.end())
        return false;
    r.l2 = getStats(kv, "l2");
    r.l3 = getStats(kv, "l3");
    auto g = [&](const char *key) {
        auto it = kv.find(key);
        return it == kv.end() ? 0.0 : it->second;
    };
    r.l2EnergyPj = g("l2pj");
    r.l3EnergyPj = g("l3pj");
    r.l1EnergyPj = g("l1pj");
    r.fullSystemPj = g("fullpj");
    r.cycles = g("cycles");
    r.instructions = g("instr");
    r.dramReads = g("dramr");
    r.dramWrites = g("dramw");
    r.dramMetaAccesses = g("dramm");
    r.dramTrafficLines = g("dramt");
    r.dramEnergyPj = g("drampj");
    r.dramDemandPj = g("dramdpj");
    r.dramMetadataPj = g("drammpj");
    r.tlbMisses = g("tlbm");
    r.eouOps = g("eou");
    return true;
}

std::string
runResultToString(const RunResult &r)
{
    std::ostringstream os;
    serializeRunResult(os, r);
    return os.str();
}

bool
operator==(const RunResult &a, const RunResult &b)
{
    return runResultToString(a) == runResultToString(b);
}

namespace {

/**
 * Per-run observation session: gives the run a trace identity and,
 * when epoch collection is on, owns the epoch sink for the run and
 * submits it to the process-wide collection at the end.
 */
class RunObsSession
{
  public:
    RunObsSession(System &sys, const RunSpec &spec) : _sys(sys)
    {
        if (obs::traceEnabled()) {
            const std::uint64_t pid = obs::tracePidFor(spec.key());
            obs::registerTraceProcess(pid, spec.key());
            sys.setTracePid(pid);
        }
        const obs::RunObservation watch = obs::runObservation();
        if (watch.collectEpochs) {
            _collect = true;
            _series.label = spec.key();
            _series.intervalRefs = watch.epochIntervalRefs;
            sys.setEpochSink(&_series);
        }
    }

    ~RunObsSession()
    {
        if (_collect) {
            _sys.setEpochSink(nullptr);
            obs::submitEpochSeries(std::move(_series));
        }
    }

  private:
    System &_sys;
    obs::EpochSeries _series;
    bool _collect = false;
};

} // namespace

RunResult
executeRun(const RunSpec &spec)
{
    System sys(runConfig(spec));
    RunObsSession watch(sys, spec);
    // One source per core: a mix puts benchmarkB on core 1, a
    // replicated run (the scenario `cores` semantic) puts the
    // benchmark on every core in offset address spaces. makeMixSource
    // so `trace:` benchmarks resolve; for generators core 0 is a
    // byte-identical wrap of makeSpecWorkload (seed delta and address
    // offset are both zero at core 0).
    std::vector<std::unique_ptr<AccessSource>> srcs;
    std::vector<AccessSource *> ptrs;
    for (unsigned c = 0; c < spec.numCores(); ++c) {
        srcs.push_back(makeMixSource(
            c == 1 && spec.isMix() ? spec.benchmarkB : spec.benchmark,
            c));
        ptrs.push_back(srcs.back().get());
    }
    sys.run(ptrs, spec.opts.refs, spec.opts.warmup);
    return extract(sys);
}

} // namespace slip
