#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "util/logging.hh"

namespace slip {
namespace bench {

namespace {

std::mutex g_runner_mu;
std::unique_ptr<SweepRunner> g_runner;
unsigned g_configured_jobs = 0;  // 0 = not configured

unsigned
defaultJobs()
{
    if (const char *v = std::getenv("SLIP_BENCH_JOBS"))
        return unsigned(std::strtoul(v, nullptr, 0));
    return 0;  // SweepRunner resolves 0 to hardware_concurrency
}

} // namespace

SweepRunner &
sweepRunner()
{
    std::lock_guard<std::mutex> lock(g_runner_mu);
    if (!g_runner)
        g_runner = std::make_unique<SweepRunner>(
            g_configured_jobs ? g_configured_jobs : defaultJobs());
    return *g_runner;
}

void
configureSweepRunner(unsigned jobs)
{
    std::lock_guard<std::mutex> lock(g_runner_mu);
    if (g_runner && g_runner->jobs() != jobs)
        fatal("sweep runner already running with %u jobs, cannot "
              "reconfigure to %u",
              g_runner->jobs(), jobs);
    g_configured_jobs = jobs;
}

RunResult
runOne(const std::string &benchmark, PolicyKind policy,
       const SweepOptions &opts)
{
    return sweepRunner().run(RunSpec::single(benchmark, policy, opts));
}

RunResult
runMix(const std::string &a, const std::string &b, PolicyKind policy,
       const SweepOptions &opts)
{
    return sweepRunner().run(RunSpec::mix(a, b, policy, opts));
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> p = {
        PolicyKind::Baseline, PolicyKind::NuRapid, PolicyKind::LruPea,
        PolicyKind::Slip, PolicyKind::SlipAbp,
    };
    return p;
}

void
printHeader(const std::string &title, const std::string &paper_ref,
            const SweepOptions &opts)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("config: %llu refs after %llu warm-up, %s, %s\n\n",
                static_cast<unsigned long long>(opts.refs),
                static_cast<unsigned long long>(opts.warmup),
                opts.config.tech.name.c_str(),
                topologyName(opts.config.topology));
}

double
average(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

} // namespace bench
} // namespace slip
