/**
 * @file
 * Declarative run scenarios: a JSON file fully describing a
 * simulation — hierarchy, policy, workload(s), reference counts, and
 * the reuse-distance knobs — loadable by `slip-sim --scenario` and
 * `slip-bench --scenario`.
 *
 * A scenario is a SystemConfig plus a workload binding. Parsing is
 * strict: unknown keys, wrong types, unknown names, and structurally
 * invalid hierarchies fail with a message naming the offending JSON
 * path ("$.levels[2].ways: ..."), so a typo in a scenario never
 * silently falls back to a default. Fields left out inherit the same
 * defaults as the programmatic API, which keeps a scenario spelling
 * out the classic configuration key-compatible (sweep/run_spec.hh)
 * with the equivalent CLI invocation.
 */

#ifndef SLIP_SCENARIO_SCENARIO_HH
#define SLIP_SCENARIO_SCENARIO_HH

#include <string>
#include <vector>

#include "sim/system.hh"
#include "util/json.hh"

namespace slip {

/** One declarative run description (see scenarios/README.md). */
struct Scenario
{
    std::string name;
    std::string description;

    /** The simulated system; keys the file leaves out keep the
     * SystemConfig defaults. */
    SystemConfig config;

    /**
     * One workload name per core; a single entry is replicated across
     * cores with per-core address offsets (the Figure 16 mix rule).
     */
    std::vector<std::string> workloads;

    std::uint64_t refs = 0;    ///< per-core references; 0 = caller's
    std::uint64_t warmup = 0;  ///< per-core warm-up references

    /** Seed of the workload generators (independent of the system
     * seed; the golden fixtures pin workload seed 0, system seed 1). */
    std::uint64_t workloadSeed = 0;

    /**
     * Intra-run pipeline threads (SystemConfig::runThreads). Purely an
     * execution hint — results are byte-identical for any value — so
     * 0 (= unset, run serially unless the caller overrides) is the
     * default and the key is omitted from canonical serialization.
     */
    unsigned runThreads = 0;
};

/**
 * Parse @p root into @p out. Returns "" on success, else an error
 * naming the offending JSON path.
 */
std::string parseScenario(const json::Value &root, Scenario &out);

/** Parse scenario JSON text (syntax errors included). */
std::string parseScenarioText(const std::string &text, Scenario &out);

/** Load and parse @p path. Returns "" on success. */
std::string loadScenarioFile(const std::string &path, Scenario &out);

/**
 * Semantic validation beyond parseScenario's structural checks:
 * workload names resolve, and the hierarchy resolves against the
 * system-wide defaults (catching unknown per-level policy/topology/
 * repl keys and over-subscribed SLIP slots). Returns "".
 */
std::string validateScenario(const Scenario &s);

/** The SystemConfig a scenario describes, run_threads hint applied. */
SystemConfig scenarioSystemConfig(const Scenario &s);

/** Serialize (round-trips through parseScenario). */
json::Value scenarioJson(const Scenario &s);

} // namespace slip

#endif // SLIP_SCENARIO_SCENARIO_HH
