/**
 * @file
 * Scenario-layer tests: the declarative JSON front-end over the
 * composable hierarchy.
 *
 *  - CLI-key round trips for the policy/topology/replacement parsers
 *    (the string<->enum dedup these registries replaced),
 *  - every checked-in scenarios/ file parses, validates, is named
 *    after its file, and is in canonical form (byte-identical to its
 *    own re-serialization),
 *  - strict validation: every rejection names the offending JSON path,
 *  - malformed JSON never crashes the parser,
 *  - v10 cache keys: file-loaded and programmatic descriptions of the
 *    same configuration hash identically; a one-field edit to any
 *    result-affecting config field misses or is rejected,
 *  - a System built from the golden scenarios reproduces the golden
 *    fixtures byte-for-byte,
 *  - 2- and 4-level scenario hierarchies run end-to-end with the
 *    ledger and metamorphic invariants intact.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/replacement.hh"
#include "energy/topology.hh"
#include "obs/energy_ledger.hh"
#include "obs/metrics.hh"
#include "scenario/scenario.hh"
#include "sim/policy_registry.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/run_spec.hh"
#include "workloads/spec_suite.hh"

#ifndef SLIP_SCENARIO_DIR
#error "SLIP_SCENARIO_DIR must point at the checked-in scenarios/"
#endif
#ifndef SLIP_GOLDEN_DIR
#error "SLIP_GOLDEN_DIR must point at tests/golden"
#endif

namespace slip {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(bool(in)) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Load the checked-in scenarios/<name>.json. */
std::string
loadCheckedIn(const std::string &name, Scenario &s)
{
    return loadScenarioFile(
        std::string(SLIP_SCENARIO_DIR) + "/" + name + ".json", s);
}

// ---------------------------------------------------------------------
// Registry key round trips (the parsers every layer now shares).

TEST(PolicyKindKeys, RoundTripAndAliases)
{
    for (PolicyKind k :
         {PolicyKind::Baseline, PolicyKind::NuRapid, PolicyKind::LruPea,
          PolicyKind::Slip, PolicyKind::SlipAbp}) {
        PolicyKind back;
        ASSERT_TRUE(parsePolicyKind(policyCliName(k), back))
            << policyCliName(k);
        EXPECT_EQ(back, k);
        // The canonical key is also a registered level policy.
        EXPECT_NE(findLevelPolicy(policyCliName(k)), nullptr);
    }
    PolicyKind k;
    EXPECT_TRUE(parsePolicyKind("lrupea", k));
    EXPECT_EQ(k, PolicyKind::LruPea);
    EXPECT_TRUE(parsePolicyKind("slip-abp", k));
    EXPECT_EQ(k, PolicyKind::SlipAbp);
    EXPECT_FALSE(parsePolicyKind("SLIP", k));
    EXPECT_FALSE(parsePolicyKind("", k));
}

TEST(TopologyKindKeys, RoundTrip)
{
    for (TopologyKind k :
         {TopologyKind::HierBusWayInterleaved,
          TopologyKind::HierBusSetInterleaved, TopologyKind::HTree,
          TopologyKind::RingSlice}) {
        TopologyKind back;
        ASSERT_TRUE(parseTopologyKind(topologyCliName(k), back))
            << topologyCliName(k);
        EXPECT_EQ(back, k);
    }
    TopologyKind k;
    EXPECT_FALSE(parseTopologyKind("mesh", k));
}

TEST(ReplKindKeys, RoundTrip)
{
    for (ReplKind k :
         {ReplKind::Lru, ReplKind::Rrip, ReplKind::Random}) {
        ReplKind back;
        ASSERT_TRUE(parseReplKind(replCliName(k), back))
            << replCliName(k);
        EXPECT_EQ(back, k);
    }
    ReplKind k;
    EXPECT_FALSE(parseReplKind("plru", k));
}

// ---------------------------------------------------------------------
// The checked-in scenarios: the files are the definitions.

TEST(CheckedInScenarios, ValidAndCanonical)
{
    unsigned files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(SLIP_SCENARIO_DIR)) {
        const std::filesystem::path &path = entry.path();
        if (path.extension() != ".json")
            continue;
        SCOPED_TRACE(path.string());
        ++files;
        const std::string text = readFile(path.string());
        Scenario s;
        ASSERT_EQ(parseScenarioText(text, s), "");
        EXPECT_EQ(validateScenario(s), "");
        EXPECT_EQ(s.name, path.stem().string());
        // Canonical form: re-serializing the parsed scenario gives the
        // file back byte for byte, so every key the parser reads
        // round-trips and the files never drift in formatting.
        EXPECT_EQ(scenarioJson(s).dump() + "\n", text);
    }
    EXPECT_GE(files, 28u);
}

// ---------------------------------------------------------------------
// Validation: every rejection names the offending JSON path.

std::string
parseErr(const std::string &text)
{
    Scenario s;
    return parseScenarioText(text, s);
}

TEST(ScenarioValidation, ErrorsNameTheJsonPath)
{
    const struct
    {
        const char *text;
        const char *want;  ///< required substring of the error
    } cases[] = {
        {"{\"workload\":\"soplex\"}", "$.name: required"},
        {"{\"name\":\"t\"}", "$.workload: required"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"frobnicate\":1}",
         "$.frobnicate: unknown key"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"workloads\":[\"mcf\"]}",
         "not both"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"cores\":\"two\"}",
         "$.cores: expected a non-negative integer"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"cores\":0}",
         "$.cores: must be in [1, 64]"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"refs\":-5}",
         "$.refs: must be non-negative"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"rd_bin_bits\":19}",
         "$.rd_bin_bits: must be in [1, 16]"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"sampling\":\"maybe\"}",
         "$.sampling: expected \"time\" or \"always\""},
        {"{\"name\":\"t\",\"workload\":\"nosuch\"}",
         "$.workloads[0]: unknown workload 'nosuch'"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"policy\":\"clock\"}",
         "$.policy: unknown policy 'clock'"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"tech\":\"7nm\"}",
         "$.tech: unknown technology '7nm'"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"topology\":\"mesh\"}",
         "$.topology: unknown topology 'mesh'"},
        {"{\"name\":\"t\",\"cores\":3,"
         "\"workloads\":[\"soplex\",\"mcf\"]}",
         "$.workloads: need exactly 1 entry or one per core (3)"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":3}",
         "$.levels: expected an array"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":"
         "[{\"size_kb\":32,\"ways\":8}]}",
         "$.levels[0].name: required"},
        {"{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":"
         "[{\"name\":\"l1\",\"size_kb\":32,\"ways\":8,\"nope\":1}]}",
         "$.levels[0].nope: unknown key"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        const std::string err = parseErr(c.text);
        EXPECT_NE(err.find(c.want), std::string::npos)
            << "error was: " << err;
    }
}

/** A structurally plausible three-level scaffold for level mutations. */
std::string
threeLevels(const std::string &l1_extra, const std::string &l2_extra,
            const std::string &l3_extra)
{
    return "{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":["
           "{\"name\":\"l1\",\"size_kb\":32,\"ways\":8" +
           l1_extra +
           "},"
           "{\"name\":\"l2\",\"size_kb\":256,\"ways\":16" +
           l2_extra +
           "},"
           "{\"name\":\"l3\",\"size_kb\":4096,\"ways\":16,"
           "\"private\":false" +
           l3_extra + "}]}";
}

TEST(ScenarioValidation, HierarchyErrorsNameTheLevel)
{
    EXPECT_EQ(parseErr(threeLevels("", "", "")), "");

    std::string err = parseErr(
        "{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":["
        "{\"name\":\"l1\",\"size_kb\":32,\"ways\":12},"
        "{\"name\":\"l2\",\"size_kb\":256,\"ways\":16},"
        "{\"name\":\"l3\",\"size_kb\":4096,\"ways\":16,"
        "\"private\":false}]}");
    EXPECT_NE(err.find("$.levels[0]"), std::string::npos) << err;
    EXPECT_NE(err.find("power of two"), std::string::npos) << err;

    err = parseErr(
        "{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":["
        "{\"name\":\"l1\",\"size_kb\":32,\"ways\":8},"
        "{\"name\":\"l2\",\"size_kb\":100,\"ways\":16},"
        "{\"name\":\"l3\",\"size_kb\":4096,\"ways\":16,"
        "\"private\":false}]}");
    EXPECT_NE(err.find("$.levels[1]"), std::string::npos) << err;
    EXPECT_NE(err.find("power of two"), std::string::npos) << err;

    err = parseErr(
        threeLevels("", ",\"sublevel_ways\":[1,2,3]", ""));
    EXPECT_NE(err.find("$.levels[1]"), std::string::npos) << err;
    EXPECT_NE(err.find("sublevel"), std::string::npos) << err;

    // SLIP needs reuse-distance profiling, which the innermost level
    // (the profiling filter itself) cannot have.
    err = parseErr(threeLevels(",\"policy\":\"slip\"", "", ""));
    EXPECT_NE(err.find("$.levels[0]"), std::string::npos) << err;
    EXPECT_NE(err.find("baseline policy"), std::string::npos) << err;

    // Line/page metadata has kMaxSlipLevels RD slots.
    const std::string four =
        "{\"name\":\"t\",\"workload\":\"soplex\",\"levels\":["
        "{\"name\":\"l1\",\"size_kb\":32,\"ways\":8},"
        "{\"name\":\"l2\",\"size_kb\":256,\"ways\":16,"
        "\"policy\":\"slip\"},"
        "{\"name\":\"l3\",\"size_kb\":1024,\"ways\":16,"
        "\"policy\":\"slip\"},"
        "{\"name\":\"l4\",\"size_kb\":4096,\"ways\":16,"
        "\"private\":false,\"policy\":\"slip+abp\"}]}";
    err = parseErr(four);
    EXPECT_NE(err.find("$.levels[3].policy"), std::string::npos) << err;
    EXPECT_NE(err.find("SLIP-managed"), std::string::npos) << err;

    err = parseErr(threeLevels("", ",\"repl\":\"plru\"", ""));
    EXPECT_NE(err.find("$.levels[1]"), std::string::npos) << err;
    EXPECT_NE(err.find("replacement"), std::string::npos) << err;
}

TEST(ScenarioValidation, MalformedJsonNeverCrashes)
{
    const char *cases[] = {
        "",
        "   ",
        "{",
        "}",
        "[1,2",
        "nul",
        "{\"name\":}",
        "{\"name\":\"x\" \"policy\":\"y\"}",
        "{\"name\":\"x\",}",
        "{\"refs\":+1}",
        "{\"name\":\"x\\",
        "\"just a string\"",
        "{\"a\":1}}",
        "{\"a\":01}",
        "[[[[[[[[[[[[[[[[",
        "{\"name\":\"\\u00zz\"}",
    };
    for (const char *text : cases) {
        SCOPED_TRACE(text);
        Scenario s;
        const std::string err = parseScenarioText(text, s);
        EXPECT_FALSE(err.empty());
    }
}

// ---------------------------------------------------------------------
// v10 cache keys.

TEST(CacheKeyV10, EmptyAndSpelledOutClassicShareKeys)
{
    EXPECT_EQ(HierarchySpec{}.key(), HierarchySpec::classic().key());

    SweepOptions legacy;
    SweepOptions spelled;
    spelled.config.hierarchy = HierarchySpec::classic();
    const RunSpec a =
        RunSpec::single("soplex", PolicyKind::Slip, legacy);
    const RunSpec b =
        RunSpec::single("soplex", PolicyKind::Slip, spelled);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key().find("_v10_"), std::string::npos) << a.key();
}

TEST(CacheKeyV10, FileScenarioMatchesProgrammaticConfig)
{
    // The golden scenario spells out the classic hierarchy in JSON;
    // its whole config (as slip-bench --scenario builds it) must hit
    // the cache entry of a legacy programmatic SweepOptions.
    Scenario s;
    ASSERT_EQ(loadCheckedIn("golden_soplex_slip", s), "");
    SweepOptions file_opts;
    file_opts.refs = s.refs;
    file_opts.warmup = s.warmup;
    file_opts.config = scenarioSystemConfig(s);

    SweepOptions prog_opts;
    prog_opts.refs = 40000;
    prog_opts.warmup = 40000;

    EXPECT_EQ(RunSpec::single(s.workloads[0], file_opts.config.policy,
                              file_opts)
                  .key(),
              RunSpec::single("soplex", PolicyKind::Slip, prog_opts)
                  .key());
}

TEST(CacheKeyV10, OneFieldEditMisses)
{
    SweepOptions base;
    base.config.hierarchy = HierarchySpec::classic();
    const auto key = [](const SweepOptions &o) {
        return RunSpec::single("soplex", PolicyKind::Slip, o).key();
    };
    const std::string k0 = key(base);

    // Each result-affecting SystemConfig field, flipped alone, must
    // miss the base entry. Sharing-topology fields (slice count,
    // coherence, the shared flag) are part of the v10 hierarchy key;
    // inclusiveL3, rdBlockPages and seed add a fragment only when they
    // leave their defaults, so keys that predate them are unchanged.
#define FLIP(edit) {#edit, [](SystemConfig &c) { edit; }}
    const std::pair<const char *, void (*)(SystemConfig &)> keyed[] = {
        FLIP(c.tech = tech22nm()),
        FLIP(c.topology = TopologyKind::HTree),
        FLIP(c.repl = ReplKind::Rrip),
        FLIP(c.randomSublevelVictim = true),
        FLIP(c.inclusiveL3 = true),
        FLIP(c.hierarchy.levels[1].ways = 8),  // still a power of two
        FLIP(c.hierarchy.levels[2].sizeBytes *= 2),
        FLIP(c.hierarchy.levels[1].policy = "lru-pea"),
        FLIP(c.hierarchy.levels[2].slices = 4),
        FLIP(c.hierarchy.levels[2].coherent = true),
        FLIP(c.hierarchy.levels[1].isPrivate = false),
        FLIP(c.rdBinBits = 6),
        FLIP(c.samplingMode = SamplingMode::Always),
        FLIP(c.eouIncludeInsertion = false),
        FLIP(c.rdBlockPages = 4),
        FLIP(c.seed = 2),
    };
#undef FLIP
    std::set<std::string> seen = {k0};
    for (const auto &[field, flip] : keyed) {
        SCOPED_TRACE(field);
        SweepOptions edit = base;
        flip(edit.config);
        // Distinct from the base and from every other one-field edit.
        EXPECT_TRUE(seen.insert(key(edit)).second) << key(edit);
    }

    // The key names the technology preset, not its parameters, so an
    // edited parameter set is rejected rather than aliased.
    SweepOptions edit = base;
    edit.config.tech.dramLatency += 1;
    EXPECT_DEATH(key(edit), "tech parameters");

    // The RunSpec owns the policy and the core count (its own key
    // fields); executeRun overwrites the config's copies.
    EXPECT_NE(RunSpec::single("soplex", PolicyKind::Baseline, base).key(),
              k0);
    EXPECT_NE(RunSpec::replicated("soplex", 4, PolicyKind::Slip, base)
                  .key(),
              k0);

    // Execution settings never change a result and stay out of the
    // key, so a cached run serves any thread count or epoch interval.
    edit = base;
    edit.config.runThreads = 4;
    EXPECT_EQ(key(edit), k0);
    edit = base;
    edit.config.epochIntervalRefs = 5000;
    EXPECT_EQ(key(edit), k0);

    // An unrelated run is unaffected: rebuilding the identical spec
    // reproduces the identical key.
    EXPECT_EQ(key(base), k0);
}

// ---------------------------------------------------------------------
// End-to-end: golden byte-identity and non-classic shapes.

TEST(ScenarioEndToEnd, GoldenScenariosReproduceGoldenFixtures)
{
    const struct
    {
        const char *scenario;
        const char *fixture;
    } cases[] = {
        {"golden_soplex_baseline", "soplex.Baseline.txt"},
        {"golden_soplex_slip", "soplex.SLIP.txt"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.scenario);
        Scenario s;
        ASSERT_EQ(loadCheckedIn(c.scenario, s), "");
        System sys(scenarioSystemConfig(s));
        auto src = makeMixSource(s.workloads[0], 0, s.workloadSeed);
        sys.run({src.get()}, s.refs, s.warmup);
        std::ostringstream os;
        dumpStats(sys, os);
        EXPECT_EQ(os.str(),
                  readFile(std::string(SLIP_GOLDEN_DIR) + "/" +
                           c.fixture))
            << "a scenario-built System diverged from the golden "
               "fixture";
    }
}

/** Shared invariants for the hierarchy-shape scenarios. */
void
checkScenarioRun(System &sys, std::uint64_t refs)
{
    sys.checkInvariants();
    EXPECT_EQ(sys.combinedLevelStats(0).demandAccesses,
              refs * sys.numCores());
    double level_sum = 0;
    for (unsigned i = 0; i < sys.numLevels(); ++i) {
        const double pj = sys.levelEnergyPj(i);
        EXPECT_GE(pj, 0.0) << sys.levelName(i);
        // The per-cause ledger partitions the level total exactly.
        EXPECT_NEAR(obs::ledgerTotal(sys.levelLedger(i)), pj,
                    1e-9 * (pj + 1))
            << sys.levelName(i);
        level_sum += pj;
    }
    const double component_sum =
        sys.instructions() * sys.config().tech.corePjPerInstr +
        level_sum + sys.dram().energyPj();
    EXPECT_NEAR(sys.fullSystemEnergyPj(), component_sum,
                1e-9 * component_sum);
}

TEST(ScenarioEndToEnd, TwoLevelHierarchy)
{
    Scenario s;
    ASSERT_EQ(loadCheckedIn("hier2_flat_llc", s), "");
    obs::setMetricsEnabled(true);
    System sys(scenarioSystemConfig(s));
    ASSERT_EQ(sys.numLevels(), 2u);
    EXPECT_EQ(sys.levelName(0), "l1");
    EXPECT_EQ(sys.levelName(1), "llc");
    // The shared LLC runs SLIP on RD slot 0.
    ASSERT_EQ(sys.numSlipSlots(), 1u);
    EXPECT_EQ(sys.slipLevel(0), 1u);

    constexpr std::uint64_t kRefs = 30000;
    auto src = makeMixSource(s.workloads[0], 0, s.workloadSeed);
    sys.run({src.get()}, kRefs, 10000);
    checkScenarioRun(sys, kRefs);
    EXPECT_GT(sys.eouOperations(), 0u);
    obs::setMetricsEnabled(false);
}

TEST(ScenarioEndToEnd, FourLevelHierarchy)
{
    Scenario s;
    ASSERT_EQ(loadCheckedIn("hier4_deep", s), "");
    obs::setMetricsEnabled(true);
    System sys(scenarioSystemConfig(s));
    ASSERT_EQ(sys.numLevels(), 4u);
    EXPECT_EQ(sys.levelName(2), "l3");
    EXPECT_EQ(sys.levelName(3), "l4");
    // SLIP claims the two RD slots on l2 and the LLC; the baseline l3
    // in between claims none.
    ASSERT_EQ(sys.numSlipSlots(), 2u);
    EXPECT_EQ(sys.slipLevel(0), 1u);
    EXPECT_EQ(sys.slipLevel(1), 3u);

    constexpr std::uint64_t kRefs = 30000;
    auto src = makeMixSource(s.workloads[0], 0, s.workloadSeed);
    sys.run({src.get()}, kRefs, 10000);
    checkScenarioRun(sys, kRefs);
    EXPECT_GT(sys.eouOperations(), 0u);
    obs::setMetricsEnabled(false);

    // Determinism: an identical scenario-built System replays to the
    // same energy figure.
    System sys2(scenarioSystemConfig(s));
    auto src2 = makeMixSource(s.workloads[0], 0, s.workloadSeed);
    sys2.run({src2.get()}, kRefs, 10000);
    EXPECT_EQ(sys2.fullSystemEnergyPj(), sys.fullSystemEnergyPj());
    EXPECT_EQ(sys2.combinedLevelStats(3).demandHits,
              sys.combinedLevelStats(3).demandHits);
}

/** Run the scenario's cores at @p run_threads, dump the stats. */
std::string
runScenario(const Scenario &s, unsigned run_threads)
{
    SystemConfig cfg = scenarioSystemConfig(s);
    cfg.runThreads = run_threads;
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned c = 0; c < s.config.numCores; ++c) {
        owned.push_back(makeMixSource(s.workloads[0], c,
                                      s.workloadSeed));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, s.refs, s.warmup);
    std::ostringstream os;
    dumpStats(sys, os);
    return os.str();
}

/**
 * Golden fixture for the 4-core shared-coherent-LLC scenario:
 * serial and pipelined runs must both reproduce the checked-in
 * stats dump byte-for-byte (the merge stage replays directory
 * bookkeeping in serial reference order), the ledger must still
 * partition every level's energy with the coherence bin live, and
 * the slice/coherence counters must be present and nonzero.
 * SLIP_GOLDEN_REGEN=1 rewrites tests/golden/shared4.Baseline.txt.
 */
TEST(ScenarioEndToEnd, SharedCoherentLlcGolden)
{
    Scenario s;
    ASSERT_EQ(loadCheckedIn("hier3_shared4", s), "");
    ASSERT_EQ(s.config.numCores, 4u);

    obs::setMetricsEnabled(true);
    SystemConfig cfg = scenarioSystemConfig(s);
    cfg.runThreads = 1;
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned c = 0; c < s.config.numCores; ++c) {
        owned.push_back(makeMixSource(s.workloads[0], c,
                                      s.workloadSeed));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, s.refs, s.warmup);
    checkScenarioRun(sys, s.refs);

    // Coherence-lite is live: every demand write probed the
    // directory and the modelled probe energy landed in the
    // `coherence` cause bin of the shared level.
    ASSERT_TRUE(sys.coherenceEnabled());
    EXPECT_GT(sys.coherenceWriteProbes(), 0u);
    const unsigned llc = sys.numLevels() - 1;
    EXPECT_GT(sys.combinedLevelStats(llc).causePj[static_cast<unsigned>(
                  obs::EnergyCause::Coherence)],
              0.0);
    // Every NUCA slice took traffic (slice hot-spotting visibility).
    ASSERT_EQ(sys.levelSlices(llc), 4u);
    for (unsigned u = 0; u < sys.levelUnits(llc); ++u)
        EXPECT_GT(sys.levelUnit(llc, u).stats().demandAccesses, 0u)
            << "slice " << u;
    obs::setMetricsEnabled(false);

    std::ostringstream os;
    dumpStats(sys, os);
    const std::string got = os.str();

    const std::string path =
        std::string(SLIP_GOLDEN_DIR) + "/shared4.Baseline.txt";
    if (std::getenv("SLIP_GOLDEN_REGEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
        out << got;
        ASSERT_TRUE(out.good()) << "short write to " << path;
        GTEST_SKIP() << "regenerated " << path;
    }
    EXPECT_EQ(got, readFile(path))
        << "the shared-LLC scenario diverged from its golden fixture "
        << path;

    // Pipelined execution is a strategy, not a configuration: the
    // fixture must also hold at the scenario's run_threads hint.
    const std::string piped = runScenario(s, 4);
    EXPECT_EQ(got, piped)
        << "--run-threads 4 diverged from the serial shared-LLC dump";
}

} // namespace
} // namespace slip
