/**
 * @file
 * Run reports: the canonical per-run JSON artifact.
 *
 * One report ties one simulation's numbers to its exact
 * configuration: a provenance block (run key, policy, workload,
 * cache-key version, run_threads, trace content hash when the
 * workload replays a trace), the per-level cause-binned energy
 * ledger, the headline result numbers, the epoch series, and the
 * volatile observability sections (wall-clock timing, metrics
 * registry snapshot with the log₂ histograms, perf phase timings,
 * ResultCache counters). `slip-bench --report-dir` writes one file
 * per distinct run; `slip-sim --report` writes one for its single
 * run; `slip-report` (tools/slip_report.cpp) validates, summarizes,
 * and regression-diffs them.
 *
 * The split that makes diffing meaningful: the `provenance`,
 * `energy`, `result`, and `epochs` sections are deterministic — equal
 * configuration means byte-equal sections, the same guarantee the
 * sweep makes for its results — while `timing`, `metrics`, `perf`,
 * and `result_cache` vary with machine, cache state, and process
 * history, so the diff tool exact-gates the former and ignores the
 * latter unless asked for a tolerance check.
 *
 * This module is deliberately neutral: it knows nothing about
 * RunSpec/RunResult or System. The layers that own those types
 * (bench/bench_registry.cc, src/sim/main.cc) convert into
 * RunReportData, so the leaf obs library stays free of simulator
 * dependencies.
 */

#ifndef SLIP_OBS_REPORT_HH
#define SLIP_OBS_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/energy_ledger.hh"
#include "util/json.hh"

namespace slip {
namespace obs {

/** Schema tag every report carries (bump on layout changes). */
constexpr const char *kReportSchema = "slip-report-v1";

/** One cache level's energy: by wire segment and by cause. */
struct ReportLevelEnergy
{
    std::string name;  ///< level name ("l2", "l3", ...)
    std::array<double, 4> segmentsPj{};  ///< EnergyCat order
    EnergyLedger causesPj{};
};

/** What exactly was run (the regression-diff join key). */
struct ReportProvenance
{
    std::string runKey;     ///< RunSpec cache key / stable run id
    std::string label;      ///< human-readable run label
    std::string policy;     ///< policy CLI key (policyCliName)
    std::string workload;   ///< workload name(s), "+"-joined for mixes
    std::string scenario;   ///< scenario name when file-driven, else ""
    std::string hierarchyKey;     ///< canonical HierarchySpec::key()
    std::string cacheKeyVersion;  ///< sweep kCacheKeyVersion
    std::string traceHash;  ///< trace content hash(es), "" when none
    unsigned runThreads = 1;
    std::uint64_t refs = 0;
    std::uint64_t warmup = 0;
};

/** Everything one report serializes (see reportJson for the JSON). */
struct RunReportData
{
    ReportProvenance provenance;

    // Deterministic energy sections. The identity slip-report
    // validate checks: core + l1 + Σ levels + dram = full_system.
    std::vector<ReportLevelEnergy> levels;  ///< outer levels in order
    double corePj = 0;  ///< instructions x corePjPerInstr
    double l1Pj = 0;
    double dramDemandPj = 0;
    double dramMetadataPj = 0;
    double dramTotalPj = 0;
    double fullSystemPj = 0;

    // Deterministic headline results.
    double cycles = 0;
    double instructions = 0;
    double dramReads = 0;
    double dramWrites = 0;
    double dramMetaAccesses = 0;
    double dramTrafficLines = 0;
    double tlbMisses = 0;
    double eouOps = 0;

    /** Epoch series (epochSeriesJson); Null when not collected. */
    json::Value epochs;

    // Volatile sections (machine/cache-state dependent).
    bool hasTiming = false;
    double seconds = 0;
    bool cached = false;
    json::Value metrics;      ///< metricsJson(); Null when absent
    json::Value perf;         ///< perf::toJson(); Null when absent
    json::Value resultCache;  ///< cache counters; Null when absent
};

/** The full report document for @p r (schema kReportSchema). */
json::Value reportJson(const RunReportData &r);

/** On-disk file name of a report (run keys are filename-safe). */
std::string reportFileName(const std::string &runKey);

} // namespace obs
} // namespace slip

#endif // SLIP_OBS_REPORT_HH
