#include "obs/report.hh"

#include "obs/epoch_series.hh"

namespace slip {
namespace obs {

namespace {

/** Wire-segment names of the EnergyCat bookkeeping categories. */
const char *const kEnergySegmentNames[4] = {"access", "movement",
                                            "metadata", "other"};

/** {"segments": {...}, "causes": {...}, "total_pj": N} of one level.
 * total_pj is the segment sum, which the accounting invariant pins to
 * the cause-bin sum and the golden energyPj total. */
json::Value
levelEnergyJson(const ReportLevelEnergy &lvl)
{
    json::Value v = json::Value::object();
    json::Value &seg = v["segments"];
    seg = json::Value::object();
    double total = 0.0;
    for (unsigned i = 0; i < lvl.segmentsPj.size(); ++i) {
        seg[kEnergySegmentNames[i]] = lvl.segmentsPj[i];
        total += lvl.segmentsPj[i];
    }
    v["causes"] = ledgerJson(lvl.causesPj);
    v["total_pj"] = total;
    return v;
}

json::Value
provenanceJson(const ReportProvenance &p)
{
    json::Value v = json::Value::object();
    v["run_key"] = p.runKey;
    v["label"] = p.label;
    v["policy"] = p.policy;
    v["workload"] = p.workload;
    if (!p.scenario.empty())
        v["scenario"] = p.scenario;
    v["hierarchy_key"] = p.hierarchyKey;
    v["cache_key_version"] = p.cacheKeyVersion;
    if (!p.traceHash.empty())
        v["trace_hash"] = p.traceHash;
    v["run_threads"] = p.runThreads;
    v["refs"] = p.refs;
    v["warmup"] = p.warmup;
    return v;
}

} // namespace

json::Value
reportJson(const RunReportData &r)
{
    json::Value root = json::Value::object();
    root["schema"] = kReportSchema;
    root["provenance"] = provenanceJson(r.provenance);

    json::Value &energy = root["energy"];
    energy = json::Value::object();
    json::Value &levels = energy["levels"];
    levels = json::Value::object();
    for (const ReportLevelEnergy &lvl : r.levels)
        levels[lvl.name] = levelEnergyJson(lvl);
    energy["core_pj"] = r.corePj;
    energy["l1_pj"] = r.l1Pj;
    json::Value &dram = energy["dram"];
    dram = json::Value::object();
    dram["demand_pj"] = r.dramDemandPj;
    dram["metadata_pj"] = r.dramMetadataPj;
    dram["total_pj"] = r.dramTotalPj;
    energy["full_system_pj"] = r.fullSystemPj;

    json::Value &result = root["result"];
    result = json::Value::object();
    result["cycles"] = r.cycles;
    result["instructions"] = r.instructions;
    result["dram_reads"] = r.dramReads;
    result["dram_writes"] = r.dramWrites;
    result["dram_metadata_accesses"] = r.dramMetaAccesses;
    result["dram_traffic_lines"] = r.dramTrafficLines;
    result["tlb_misses"] = r.tlbMisses;
    result["eou_ops"] = r.eouOps;

    if (!r.epochs.isNull())
        root["epochs"] = r.epochs;

    if (r.hasTiming) {
        json::Value &timing = root["timing"];
        timing = json::Value::object();
        timing["seconds"] = r.seconds;
        timing["cached"] = r.cached;
    }
    if (!r.metrics.isNull())
        root["metrics"] = r.metrics;
    if (!r.perf.isNull())
        root["perf"] = r.perf;
    if (!r.resultCache.isNull())
        root["result_cache"] = r.resultCache;
    return root;
}

std::string
reportFileName(const std::string &runKey)
{
    return runKey + ".json";
}

} // namespace obs
} // namespace slip
