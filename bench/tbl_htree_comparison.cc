/**
 * @file
 * Section 2.1 interconnect study: an H-tree topology (uniform access
 * energy equal to the furthest location) raises cache energy versus
 * the hierarchical-bus/way-interleaved baseline — the paper measures
 * +37% at L2 and +32% at L3 with identical performance. The
 * set-interleaved variant (Fig. 4b) is included: uniform energy at the
 * mean, removing SLIP's lever entirely.
 */

#include <cstdio>

#include "bench_registry.hh"

using namespace slip;
using namespace slip::bench;

namespace {

void
plan(std::vector<RunSpec> &out)
{
    SweepOptions way;
    SweepOptions htree = way;
    htree.config.topology = TopologyKind::HTree;
    SweepOptions setil = way;
    setil.config.topology = TopologyKind::HierBusSetInterleaved;
    for (const auto &benchn : specBenchmarks())
        for (const SweepOptions *o : {&way, &htree, &setil})
            out.push_back(
                RunSpec::single(benchn, PolicyKind::Baseline, *o));
}

int
render()
{
    SweepOptions way;
    SweepOptions htree = way;
    htree.config.topology = TopologyKind::HTree;
    SweepOptions setil = way;
    setil.config.topology = TopologyKind::HierBusSetInterleaved;

    printHeader("Section 2.1: interconnect topology comparison "
                "(baseline policy)",
                "paper: H-tree increases L2 energy by 37% and L3 by "
                "32%; performance unchanged",
                way);

    TextTable t;
    t.setHeader({"benchmark", "htree L2", "htree L3", "set-il L2",
                 "set-il L3", "cycles delta"});
    std::vector<double> h2, h3;
    for (const auto &benchn : specBenchmarks()) {
        const RunResult base = runOne(benchn, PolicyKind::Baseline, way);
        const RunResult ht = runOne(benchn, PolicyKind::Baseline, htree);
        const RunResult si = runOne(benchn, PolicyKind::Baseline, setil);
        const double d2 = ht.l2EnergyPj / base.l2EnergyPj - 1.0;
        const double d3 = ht.l3EnergyPj / base.l3EnergyPj - 1.0;
        t.addRow({benchn, TextTable::pct(d2), TextTable::pct(d3),
                  TextTable::pct(si.l2EnergyPj / base.l2EnergyPj - 1.0),
                  TextTable::pct(si.l3EnergyPj / base.l3EnergyPj - 1.0),
                  TextTable::pct(ht.cycles / base.cycles - 1.0, 2)});
        h2.push_back(d2);
        h3.push_back(d3);
    }
    t.addSeparator();
    t.addRow({"average", TextTable::pct(average(h2)),
              TextTable::pct(average(h3)), "", "", ""});
    t.addRow({"paper", "+37%", "+32%", "(uniform=mean)", "", "~0%"});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

const BenchFigureRegistrar reg{
    {"tbl_htree_comparison",
     "Section 2.1: interconnect topology comparison", &plan, &render}};

} // namespace
