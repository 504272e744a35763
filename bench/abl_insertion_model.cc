/**
 * @file
 * Ablation (DESIGN.md §4.1): the EOU coefficient table with and
 * without the refill-write term. The printed Equations 1-4 omit the
 * insertion write a miss implies; Figure 11's caption counts insertion
 * energy as movement energy. Without the term, the ABP can never win
 * on energy (a miss costs the same as under Default minus placement),
 * so bypassing collapses and most of SLIP+ABP's savings disappear.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions with;
    SweepOptions without = with;
    without.config.eouIncludeInsertion = false;
    for (const auto &benchn : specBenchmarks()) {
        out.push_back(
            RunSpec::single(benchn, PolicyKind::Baseline, with));
        out.push_back(
            RunSpec::single(benchn, PolicyKind::SlipAbp, with));
        out.push_back(
            RunSpec::single(benchn, PolicyKind::SlipAbp, without));
    }
}

int
render()
{
    SweepOptions with;
    SweepOptions without = with;
    without.config.eouIncludeInsertion = false;

    printHeader("Ablation: EOU refill-write term (SLIP+ABP)",
                "DESIGN.md §4.1 — strict printed equations vs the "
                "insertion-aware model used for the results",
                with);

    TextTable t;
    t.setHeader({"benchmark", "L2 sav (with)", "L2 sav (without)",
                 "L2 ABP frac (with)", "L2 ABP frac (without)"});
    std::vector<double> sw, so, fw, fo;
    for (const auto &benchn : specBenchmarks()) {
        const RunResult base = runOne(benchn, PolicyKind::Baseline, with);
        auto eval = [&](const SweepOptions &o, double &sav,
                        double &frac) {
            const RunResult r = runOne(benchn, PolicyKind::SlipAbp, o);
            sav = 1.0 - r.l2EnergyPj / base.l2EnergyPj;
            double ins = 0;
            for (auto c : r.l2.insertClass)
                ins += double(c);
            frac = ins ? r.l2.insertClass[unsigned(
                             InsertClass::AllBypass)] /
                             ins
                       : 0.0;
        };
        double s1, f1, s0, f0;
        eval(with, s1, f1);
        eval(without, s0, f0);
        t.addRow({benchn, TextTable::pct(s1), TextTable::pct(s0),
                  TextTable::pct(f1), TextTable::pct(f0)});
        sw.push_back(s1);
        so.push_back(s0);
        fw.push_back(f1);
        fo.push_back(f0);
    }
    t.addSeparator();
    t.addRow({"average", TextTable::pct(average(sw)),
              TextTable::pct(average(so)), TextTable::pct(average(fw)),
              TextTable::pct(average(fo))});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

const BenchFigureRegistrar reg{
    {"abl_insertion_model",
     "Ablation: EOU refill-write term (SLIP+ABP)", &plan, &render}};

} // namespace
