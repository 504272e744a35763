/**
 * @file
 * Entry point of slip-bench, which links every figure. All
 * orchestration — flag parsing, parallel sweep execution, rendering —
 * lives in benchOrchestratorMain().
 */

#include "bench_registry.hh"

int
main(int argc, char **argv)
{
    return slip::bench::benchOrchestratorMain(argc, argv);
}
