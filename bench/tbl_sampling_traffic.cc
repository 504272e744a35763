/**
 * @file
 * Sections 4.1/4.2 metadata-traffic study: without time-based
 * sampling, the per-page distribution is fetched on every TLB miss;
 * the paper measured up to +27% L2 traffic and +6% DRAM traffic for
 * xalancbmk. With Nsamp=16/Nstab=256 sampling, only ~6% of TLB misses
 * fetch metadata, keeping the overhead below 2% at L2 and 1.5% at
 * DRAM.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

/** High-TLB-miss-rate workloads called out by the paper. */
const std::vector<std::string> &
sampledBenches()
{
    static const std::vector<std::string> benches = {
        "soplex", "mcf", "xalancbmk", "astar", "omnetpp",
    };
    return benches;
}

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions sampled;
    SweepOptions always = sampled;
    always.config.samplingMode = SamplingMode::Always;
    for (const auto &benchn : sampledBenches()) {
        out.push_back(
            RunSpec::single(benchn, PolicyKind::Baseline, sampled));
        out.push_back(
            RunSpec::single(benchn, PolicyKind::SlipAbp, sampled));
        out.push_back(
            RunSpec::single(benchn, PolicyKind::SlipAbp, always));
    }
}

int
render()
{
    SweepOptions sampled;
    SweepOptions always = sampled;
    always.config.samplingMode = SamplingMode::Always;

    printHeader("Sections 4.1/4.2: metadata traffic, always-fetch vs "
                "time-based sampling (SLIP+ABP)",
                "paper: without sampling xalancbmk +27% L2 / +6% DRAM "
                "traffic; with sampling <2% L2, <1.5% DRAM",
                sampled);

    const std::vector<std::string> &benches = sampledBenches();

    TextTable t;
    t.setHeader({"benchmark", "always L2 ovh", "always DRAM ovh",
                 "sampled L2 ovh", "sampled DRAM ovh",
                 "sampled fetch frac"});

    for (const auto &benchn : benches) {
        const RunResult base =
            runOne(benchn, PolicyKind::Baseline, sampled);
        auto row = [&](const SweepOptions &o) {
            const RunResult r = runOne(benchn, PolicyKind::SlipAbp, o);
            const double l2ovh = double(r.l2.metadataAccesses) /
                                 double(base.l2.demandAccesses);
            const double dram_base = base.dramReads + base.dramWrites;
            const double dram_ovh =
                (r.dramTrafficLines - (r.dramReads + r.dramWrites)) /
                dram_base;
            const double fetch_frac =
                r.tlbMisses ? r.l2.metadataAccesses / r.tlbMisses : 0.0;
            return std::array<double, 3>{l2ovh, dram_ovh, fetch_frac};
        };
        const auto a = row(always);
        const auto s = row(sampled);
        t.addRow({benchn, TextTable::pct(a[0]), TextTable::pct(a[1], 2),
                  TextTable::pct(s[0]), TextTable::pct(s[1], 2),
                  TextTable::pct(s[2])});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nNsamp=16, Nstab=256 -> expected sampling fraction "
                "of TLB misses: %.1f%% (Section 4.2)\n",
                100.0 * 16 / (16 + 256));
    return 0;
}

const BenchFigureRegistrar reg{
    {"tbl_sampling_traffic",
     "Sections 4.1/4.2: metadata traffic, always-fetch vs sampling",
     &plan, &render}};

} // namespace
