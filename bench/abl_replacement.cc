/**
 * @file
 * Ablation (Section 7): SLIP over an RRIP-family replacement policy
 * using the randomized per-sublevel victim selection the paper argues
 * preserves scan/thrash resistance, compared with the LRU used in the
 * evaluation. SLIP is orthogonal to replacement: savings should hold
 * under both.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions lru;
    SweepOptions rrip = lru;
    rrip.config.repl = ReplKind::Rrip;
    rrip.config.randomSublevelVictim = true;
    for (const auto &benchn : specBenchmarks())
        for (const SweepOptions *o : {&lru, &rrip})
            for (PolicyKind pk :
                 {PolicyKind::Baseline, PolicyKind::SlipAbp})
                out.push_back(RunSpec::single(benchn, pk, *o));
}

int
render()
{
    SweepOptions lru;
    SweepOptions rrip = lru;
    rrip.config.repl = ReplKind::Rrip;
    rrip.config.randomSublevelVictim = true;

    printHeader("Ablation: replacement policy under SLIP+ABP "
                "(Section 7 DRRIP adaptation)",
                "paper argues SLIP composes with RRIP-family "
                "replacement without losing scan/thrash resistance",
                lru);

    TextTable t;
    t.setHeader({"benchmark", "L2 sav (LRU)", "L2 sav (RRIP)",
                 "L3 sav (LRU)", "L3 sav (RRIP)"});
    std::vector<double> a2, b2, a3, b3;
    for (const auto &benchn : specBenchmarks()) {
        auto sav = [&](const SweepOptions &o, bool l3) {
            const RunResult base =
                runOne(benchn, PolicyKind::Baseline, o);
            const RunResult r = runOne(benchn, PolicyKind::SlipAbp, o);
            return l3 ? 1.0 - r.l3EnergyPj / base.l3EnergyPj
                      : 1.0 - r.l2EnergyPj / base.l2EnergyPj;
        };
        const double l2a = sav(lru, false), l2b = sav(rrip, false);
        const double l3a = sav(lru, true), l3b = sav(rrip, true);
        t.addRow({benchn, TextTable::pct(l2a), TextTable::pct(l2b),
                  TextTable::pct(l3a), TextTable::pct(l3b)});
        a2.push_back(l2a);
        b2.push_back(l2b);
        a3.push_back(l3a);
        b3.push_back(l3b);
    }
    t.addSeparator();
    t.addRow({"average", TextTable::pct(average(a2)),
              TextTable::pct(average(b2)), TextTable::pct(average(a3)),
              TextTable::pct(average(b3))});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

const BenchFigureRegistrar reg{
    {"abl_replacement",
     "Ablation: replacement policy under SLIP+ABP", &plan, &render}};

} // namespace
