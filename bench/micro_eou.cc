/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot units: the EOU dot
 * products (the paper's RTL does one optimization per cycle at
 * 2.4 GHz; this checks our model code is cheap enough to be invoked
 * per TLB-miss at full simulation speed), cache lookups, the SLIP fill
 * cascade, and workload generation.
 */

#include <benchmark/benchmark.h>

#include "bench_registry.hh"
#include "cache/cache_level.hh"
#include "energy/energy_params.hh"
#include "slip/eou.hh"
#include "slip/slip_controller.hh"
#include "util/random.hh"
#include "workloads/spec_suite.hh"

namespace slip {
namespace {

SlipEnergyModelParams
l2Model()
{
    SlipEnergyModelParams p;
    p.sublevelEnergy = {21.0, 33.0, 50.0};
    p.sublevelWays = {4, 4, 8};
    p.nextLevelEnergy = 133.0;
    return p;
}

void
BM_EouOptimize(benchmark::State &state)
{
    Eou eou(SlipEnergyModel(l2Model()), true);
    Random rng(1);
    std::uint8_t bins[4] = {3, 1, 0, 12};
    for (auto _ : state) {
        bins[0] = static_cast<std::uint8_t>(rng.below(16));
        benchmark::DoNotOptimize(eou.optimize(bins));
    }
}
BENCHMARK(BM_EouOptimize);

void
BM_CacheLookupHit(benchmark::State &state)
{
    CacheLevelConfig cfg;
    cfg.energy = tech45nm().l2;
    CacheLevel l2(cfg);
    const Addr line = 0x42;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 0, line, false, PolicyPair{},
                   InsertClass::Default);
    for (auto _ : state)
        benchmark::DoNotOptimize(l2.lookup(line, AccessClass::Demand));
}
BENCHMARK(BM_CacheLookupHit);

void
BM_SlipFillCascade(benchmark::State &state)
{
    CacheLevelConfig cfg;
    cfg.energy = tech45nm().l2;
    CacheLevel l2(cfg);
    SlipController ctrl(l2, kSlipL2);
    PageCtx ctx;
    ctx.policies.code[kSlipL2] =
        SlipPolicy::fromChunkEnds({1, 2, 3}).code(3);
    std::vector<Eviction> evs;
    Addr a = 0;
    for (auto _ : state) {
        ctrl.fill(a, false, ctx, evs);
        evs.clear();
        a += 256;  // same set every time: worst-case cascades
    }
}
BENCHMARK(BM_SlipFillCascade);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto w = makeSpecWorkload("soplex");
    MemAccess acc;
    for (auto _ : state) {
        w->next(acc);
        benchmark::DoNotOptimize(acc.addr);
    }
}
BENCHMARK(BM_WorkloadGeneration);

/**
 * Registered like the figures so `slip-bench --only micro_eou` runs
 * the microbenchmarks; they need no simulated runs, so the plan is
 * empty and the sweep degenerates to nothing. byDefault=false keeps
 * minutes of google-benchmark timing out of the default all-figures
 * render — the micros run only when named explicitly.
 */
int
render()
{
    // google-benchmark consumes argv; we run with defaults (the
    // orchestrator already parsed the real command line).
    int argc = 1;
    char name[] = "micro_eou";
    char *argv[] = {name, nullptr};
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

const bench::BenchFigureRegistrar reg{
    {"micro_eou", "Microbenchmarks: EOU, lookup, fill, generation",
     [](std::vector<RunSpec> &) {}, &render, /*byDefault=*/false}};

} // namespace
} // namespace slip
