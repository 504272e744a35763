/**
 * @file
 * Text statistics dump for a System, in the style of gem5's
 * stats.txt: one "component.stat value" line per statistic. Used by
 * the slip-sim CLI driver and the golden fixtures, and handy for
 * diffing runs. The machine-readable per-run artifact is the run
 * report (obs/report.hh).
 */

#ifndef SLIP_SIM_STATS_DUMP_HH
#define SLIP_SIM_STATS_DUMP_HH

#include <ostream>

#include "sim/system.hh"

namespace slip {

/** Write every statistic of @p sys to @p os. */
void dumpStats(System &sys, std::ostream &os);

} // namespace slip

#endif // SLIP_SIM_STATS_DUMP_HH
