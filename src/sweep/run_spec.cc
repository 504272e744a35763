#include "sweep/run_spec.hh"

#include <cstdlib>
#include <sstream>

#include "util/logging.hh"
#include "workloads/trace_workload.hh"

namespace slip {

namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 0) : fallback;
}

/** FNV-1a; the hierarchy fragment is folded to 16 hex digits so the
 * cache key stays a sane on-disk file name for deep hierarchies. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

SweepOptions::SweepOptions()
{
    refs = envU64("SLIP_BENCH_REFS", 1'500'000);
    warmup = envU64("SLIP_BENCH_WARMUP", refs);
    config.runThreads = static_cast<unsigned>(
        envU64("SLIP_RUN_THREADS", 1));
    if (config.runThreads == 0)
        config.runThreads = 1;
}

std::string
SweepOptions::key() const
{
    const SystemConfig &c = config;
    if (c.tech != (c.tech.name == "22nm" ? tech22nm() : tech45nm()))
        fatal("sweep config: tech parameters differ from the '%s' "
              "preset, and the cache key names only the preset",
              c.tech.name.c_str());
    // v8: keys gained the hierarchy fragment (always serialized in
    // canonical form, so classic runs from any construction path —
    // CLI, programmatic, scenario file — share entries).
    // v9: trace-driven benchmarks fold the trace file's content hash
    // into the benchmark token (see RunSpec::key), so cached results
    // can never alias across different trace files.
    // Fields keyed after v10 add a fragment only when they differ
    // from the default, so every earlier key keeps its spelling and
    // its meaning.
    std::ostringstream os;
    os << kCacheKeyVersion << "_r" << refs << "_w" << warmup << "_"
       << c.tech.name << "_t" << int(c.topology) << "_s"
       << int(c.samplingMode) << "_b" << c.rdBinBits << "_i"
       << c.eouIncludeInsertion << "_p" << int(c.repl) << "_v"
       << c.randomSublevelVictim << "_h" << std::hex
       << fnv1a(c.hierarchy.key()) << std::dec;
    if (c.inclusiveL3)
        os << "_incl";
    if (c.rdBlockPages != 1)
        os << "_rbp" << c.rdBlockPages;
    if (c.seed != 1)
        os << "_seed" << c.seed;
    return os.str();
}

// The factories aggregate-initialize: a default-constructed RunSpec
// would run SweepOptions(), whose getenv races a caller's setenv.

RunSpec
RunSpec::single(std::string benchmark, PolicyKind policy,
                const SweepOptions &opts)
{
    return {std::move(benchmark), "", 0, policy, opts};
}

RunSpec
RunSpec::mix(std::string a, std::string b, PolicyKind policy,
             const SweepOptions &opts)
{
    return {std::move(a), std::move(b), 0, policy, opts};
}

RunSpec
RunSpec::replicated(std::string benchmark, unsigned cores,
                    PolicyKind policy, const SweepOptions &opts)
{
    slip_assert(cores >= 1 && cores <= 64,
                "replicated run needs 1-64 cores, got %u", cores);
    return {std::move(benchmark), "", cores, policy, opts};
}

namespace {

/**
 * The key token for a benchmark name. Registered workloads pass
 * through verbatim; `trace:path` names become a filename-safe token
 * carrying an FNV of the name (so two paths never collide textually)
 * plus an FNV of the raw file bytes, so editing a trace in place
 * misses the stale cache entry. Hashing re-reads the whole file on
 * every key() call, so callers that need a key more than once keep it
 * (SweepRunner computes each task's key once, in enqueue); correctness
 * under in-place edits beats caching the digest. Fatal when the file
 * is unreadable: callers validate trace workloads before building
 * specs, so this is a programmer error.
 */
std::string
benchmarkKeyToken(const std::string &name)
{
    if (!isTraceWorkload(name))
        return name;
    std::string err;
    const std::uint64_t content =
        traceFileHash(traceWorkloadPath(name), &err);
    if (!err.empty())
        fatal("cache key for '%s': %s", name.c_str(), err.c_str());
    std::ostringstream os;
    os << "trace-" << std::hex << fnv1a(name) << "-" << content;
    return os.str();
}

} // namespace

std::string
RunSpec::key() const
{
    if (isMix())
        return "mix_" + benchmarkKeyToken(benchmark) + "+" +
               benchmarkKeyToken(benchmarkB) + "_" +
               policyName(policy) + "_" + opts.key();
    if (isReplicated() && cores != 1)
        // v10: N-core replicated runs ("rep4_soplex_..."). A 1-core
        // replicated spec is semantically a single and shares its key.
        return "rep" + std::to_string(cores) + "_" +
               benchmarkKeyToken(benchmark) + "_" +
               policyName(policy) + "_" + opts.key();
    return benchmarkKeyToken(benchmark) + "_" + policyName(policy) +
           "_" + opts.key();
}

std::string
RunSpec::label() const
{
    std::string l = benchmark;
    if (isMix())
        l += "+" + benchmarkB;
    else if (isReplicated() && cores != 1)
        l += "x" + std::to_string(cores);
    l += "/";
    l += policyName(policy);
    return l;
}

} // namespace slip
