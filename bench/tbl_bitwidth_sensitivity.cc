/**
 * @file
 * Section 6 distribution-accuracy study: sweeping the reuse-distance
 * bin counter width. The paper: 4-bit bins are within 1% of wider
 * counters; 2-bit bins lose sharply because small hit counts round to
 * zero, over-triggering bypass and inflating LLC/DRAM traffic.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

constexpr unsigned kWidths[] = {2, 3, 4, 6, 8};

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions base_opts;
    for (const auto &benchn : specBenchmarks()) {
        out.push_back(
            RunSpec::single(benchn, PolicyKind::Baseline, base_opts));
        for (unsigned bits : kWidths) {
            SweepOptions opts = base_opts;
            opts.config.rdBinBits = bits;
            out.push_back(
                RunSpec::single(benchn, PolicyKind::SlipAbp, opts));
        }
    }
}

int
render()
{
    const unsigned(&widths)[5] = kWidths;

    SweepOptions base_opts;
    printHeader("Section 6: reuse-distance bin width sensitivity "
                "(SLIP+ABP, suite average)",
                "paper: 4 b within 1% of wider; sharp drop at 2 b from "
                "over-bypassing",
                base_opts);

    TextTable t;
    t.setHeader({"bin width", "L2 savings", "L3 savings",
                 "DRAM traffic vs baseline", "L2 ABP frac"});

    for (unsigned bits : widths) {
        SweepOptions opts = base_opts;
        opts.config.rdBinBits = bits;
        std::vector<double> l2s, l3s, dts, abps;
        for (const auto &benchn : specBenchmarks()) {
            const RunResult base =
                runOne(benchn, PolicyKind::Baseline, base_opts);
            const RunResult r = runOne(benchn, PolicyKind::SlipAbp, opts);
            l2s.push_back(1.0 - r.l2EnergyPj / base.l2EnergyPj);
            l3s.push_back(1.0 - r.l3EnergyPj / base.l3EnergyPj);
            dts.push_back(r.dramTrafficLines / base.dramTrafficLines);
            double ins = 0;
            for (auto c : r.l2.insertClass)
                ins += double(c);
            abps.push_back(
                ins ? r.l2.insertClass[unsigned(
                          InsertClass::AllBypass)] /
                          ins
                    : 0.0);
        }
        char w[16], d[32];
        std::snprintf(w, sizeof(w), "%u b", bits);
        std::snprintf(d, sizeof(d), "%.1f%%", 100 * average(dts));
        t.addRow({w, TextTable::pct(average(l2s)),
                  TextTable::pct(average(l3s)), d,
                  TextTable::pct(average(abps))});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\npaper: energy savings at 4 b within 1%% of larger "
                "widths; 2 b notably worse\n");
    return 0;
}

const BenchFigureRegistrar reg{
    {"tbl_bitwidth_sensitivity",
     "Section 6: reuse-distance bin width sensitivity", &plan,
     &render}};

} // namespace
