/**
 * @file
 * Section 6 technology study: re-running the evaluation with 22 nm
 * energy parameters (same Table 1 system). The paper reports SLIP+ABP
 * saving 36% of L2 energy and 25% of L3 energy at 22 nm — slightly
 * more than at 45 nm, because DRAM (which does not scale with the
 * logic node) grows in relative cost.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions n45;
    SweepOptions n22 = n45;
    n22.config.tech = tech22nm();
    for (const auto &benchn : specBenchmarks())
        for (const SweepOptions *o : {&n45, &n22})
            for (PolicyKind pk :
                 {PolicyKind::Baseline, PolicyKind::SlipAbp})
                out.push_back(RunSpec::single(benchn, pk, *o));
}

int
render()
{
    SweepOptions n45;
    SweepOptions n22 = n45;
    n22.config.tech = tech22nm();

    printHeader("Section 6: SLIP+ABP savings at 22 nm vs 45 nm",
                "paper: 36% L2 / 25% L3 at 22 nm (vs 35%/22% at 45 nm)",
                n22);

    TextTable t;
    t.setHeader({"benchmark", "L2 45nm", "L2 22nm", "L3 45nm",
                 "L3 22nm"});
    std::vector<double> a2, b2, a3, b3;
    for (const auto &benchn : specBenchmarks()) {
        auto sav = [&](const SweepOptions &o, bool l3) {
            const RunResult base =
                runOne(benchn, PolicyKind::Baseline, o);
            const RunResult abp = runOne(benchn, PolicyKind::SlipAbp, o);
            return l3 ? 1.0 - abp.l3EnergyPj / base.l3EnergyPj
                      : 1.0 - abp.l2EnergyPj / base.l2EnergyPj;
        };
        const double s45l2 = sav(n45, false), s22l2 = sav(n22, false);
        const double s45l3 = sav(n45, true), s22l3 = sav(n22, true);
        t.addRow({benchn, TextTable::pct(s45l2), TextTable::pct(s22l2),
                  TextTable::pct(s45l3), TextTable::pct(s22l3)});
        a2.push_back(s45l2);
        b2.push_back(s22l2);
        a3.push_back(s45l3);
        b3.push_back(s22l3);
    }
    t.addSeparator();
    t.addRow({"average", TextTable::pct(average(a2)),
              TextTable::pct(average(b2)), TextTable::pct(average(a3)),
              TextTable::pct(average(b3))});
    t.addRow({"paper avg", "+35%", "+36%", "+22%", "+25%"});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

const BenchFigureRegistrar reg{
    {"tbl_tech22nm", "Section 6: SLIP+ABP savings at 22 nm vs 45 nm",
     &plan, &render}};

} // namespace
