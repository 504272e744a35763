/**
 * @file
 * Registry of experiment harnesses (one per table/figure of the
 * paper), decoupling "which runs does this figure need" from "how is
 * its output rendered".
 *
 * Every harness file registers itself with
 *
 *   - plan():   append the RunSpecs the figure consumes — cheap, no
 *               simulation; lets the orchestrator compute the closure
 *               of required runs up front and execute it in parallel;
 *   - render(): print the figure (the former main()). Rendering calls
 *               runOne/runMix, which hit the runner's in-process memo
 *               once the planned sweep has executed — and fall back to
 *               on-demand simulation for anything a plan missed, so an
 *               incomplete plan costs time, never correctness.
 *
 * The orchestrator main drives slip-bench, which registers all of them
 * (`--only NAME` renders a subset).
 */

#ifndef SLIP_BENCH_BENCH_REGISTRY_HH
#define SLIP_BENCH_BENCH_REGISTRY_HH

#include <vector>

#include "bench_common.hh"

namespace slip {
namespace bench {

struct BenchFigure
{
    const char *name;   ///< binary/selector name, e.g. "fig09_energy_savings"
    const char *title;  ///< one-line description for --list
    void (*plan)(std::vector<RunSpec> &out);
    int (*render)();
    /** Rendered without --only? The microbenchmarks opt out. */
    bool byDefault = true;
};

/** Register @p fig (called from static initializers). */
void registerBenchFigure(const BenchFigure &fig);

/** All figures registered in this binary, in registration order. */
const std::vector<BenchFigure> &benchFigures();

struct BenchFigureRegistrar
{
    explicit BenchFigureRegistrar(const BenchFigure &fig)
    {
        registerBenchFigure(fig);
    }
};

/**
 * Shared driver: parse flags (--jobs/--only/--list/--refs/--warmup/
 * --cache/--report-dir/...), compute the closure of required runs over
 * the selected figures, execute it in parallel with live progress,
 * then render each figure serially.
 */
int benchOrchestratorMain(int argc, char **argv);

} // namespace bench
} // namespace slip

#endif // SLIP_BENCH_BENCH_REGISTRY_HH
