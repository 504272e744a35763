/**
 * @file
 * Trace-driven workloads: the `trace:path[.gz]` workload-name scheme
 * that lets scenarios, slip-bench and slip-sim replay an on-disk
 * trace (mem/trace_io.hh) anywhere a registered synthetic workload
 * name is accepted. It is the only replay path: `slip-sim --trace F`
 * runs the workload `trace:F`.
 *
 * Semantics:
 *  - `trace:/path/to/file.trc2[.gz]` resolves through makeMixSource
 *    like any other workload name. No per-core address offset is
 *    applied — a multicore capture already embeds each core's
 *    addresses — and the per-core streams demux by the record core
 *    id. Single-core traces feed every core the full stream.
 *  - Sources loop deterministically when the capture is shorter than
 *    the run, so short captures still fill a measurement window.
 *  - The path must name a regular file (a symlink to one, such as
 *    `/dev/stdin` redirected from a file, is fine): a run opens it
 *    once to validate and once per core, and rewinds it to loop. A
 *    pipe is rejected by name; `slip-trace` reads pipes.
 *  - Validation (validateTraceWorkload) is recoverable: scenario
 *    validation surfaces "$.workloads[i]: <path>: ..." messages
 *    instead of aborting mid-run.
 *  - The replay pulls addr/type only; icount-deltas ride along in
 *    the format for importers, while the simulator's timing stays
 *    analytic (SystemConfig::instrPerAccess).
 */

#ifndef SLIP_WORKLOADS_TRACE_WORKLOAD_HH
#define SLIP_WORKLOADS_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/trace_io.hh"

namespace slip {

/** Workload names beginning with this prefix replay a trace file. */
constexpr const char *kTraceWorkloadPrefix = "trace:";

/** True when @p name uses the `trace:` scheme. */
bool isTraceWorkload(const std::string &name);

/** The file path after the `trace:` prefix (may be empty). */
std::string traceWorkloadPath(const std::string &name);

/**
 * Check that @p name is replayable on @p cores cores: path present,
 * a regular file and openable, header valid, enough cores in the
 * trace, at least one record. Reads only the header (and, for the
 * legacy formats, which declare no record count, one record).
 * Returns "" or a path-named error suitable for prefixing with a
 * "$.workloads[i]: " scenario path.
 */
std::string validateTraceWorkload(const std::string &name,
                                  unsigned cores);

/**
 * Content hashes (traceFileHash, hex) of the distinct `trace:` names
 * among @p workloads, in first-appearance order and joined by "+";
 * "" when there are none. A run report's provenance.trace_hash.
 * Unreadable files are skipped: callers have validated them.
 */
std::string traceWorkloadHash(const std::vector<std::string> &workloads);

/**
 * Open core @p core's looping replay source for @p name. Returns
 * nullptr with @p err set on failure (same checks as
 * validateTraceWorkload).
 */
std::unique_ptr<AccessSource>
makeTraceWorkloadSource(const std::string &name, unsigned core,
                        std::string *err);

/**
 * Capture @p refsPerCore references per core of a registered
 * workload (or another `trace:` name) to @p outPath as SLIPTRC2,
 * interleaved
 * round-robin core 0..cores-1 exactly as System::run pulls them.
 * Uses the same per-core sources as a scenario run (makeMixSource
 * with @p workloadSeed), so replaying the capture at the same core
 * count reproduces the generator run byte-identically when the
 * capture covers warmup + measured references. Returns "" or an
 * error.
 */
std::string captureWorkloadTrace(const std::string &workload,
                                 unsigned cores,
                                 std::uint64_t refsPerCore,
                                 std::uint64_t workloadSeed,
                                 const std::string &outPath);

} // namespace slip

#endif // SLIP_WORKLOADS_TRACE_WORKLOAD_HH
