/**
 * @file
 * The synthetic SPEC-CPU2006-like workload suite.
 *
 * One workload per benchmark named in the paper's figures, each a
 * phased mixture of access-pattern primitives calibrated to the reuse
 * behaviour the paper describes: soplex's bimodal array streams
 * (Figure 3), mcf's phase changes (Section 4.1), lbm/milc's streaming,
 * bzip2/sphinx3's hot working sets, and so on. The generators control
 * the reuse-distance distribution reaching L2/L3, which is the only
 * workload property SLIP's machinery consumes (DESIGN.md §1).
 */

#ifndef SLIP_WORKLOADS_SPEC_SUITE_HH
#define SLIP_WORKLOADS_SPEC_SUITE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workloads/benchmark.hh"

namespace slip {

/** Benchmark names in the order of the paper's figures. */
const std::vector<std::string> &specBenchmarks();

/** True when @p name is one of specBenchmarks(). */
bool isKnownWorkload(const std::string &name);

/** The subset shown in Figure 1. */
const std::vector<std::string> &figure1Benchmarks();

/** Build the named workload. Fatal on unknown names. */
std::unique_ptr<Workload> makeSpecWorkload(const std::string &name,
                                           std::uint64_t seed = 0);

/** The eight two-benchmark multiprogrammed mixes of Figure 16. */
const std::vector<std::pair<std::string, std::string>> &
multicoreMixes();

/**
 * Build one core's source for a mix: the named workload with the
 * core's address-space offset applied.
 */
std::unique_ptr<AccessSource> makeMixSource(const std::string &name,
                                            unsigned core,
                                            std::uint64_t seed = 0);

} // namespace slip

#endif // SLIP_WORKLOADS_SPEC_SUITE_HH
