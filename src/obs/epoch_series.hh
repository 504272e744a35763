/**
 * @file
 * Epoch time-series sink: per-epoch snapshots of the energy ledger.
 *
 * When a run is configured with an epoch interval, System rolls an
 * epoch every N references and records the *delta* of each level's
 * energy-attribution ledger (plus DRAM energy, EOU activity, and hit
 * counts) since the previous rollover. The resulting series answers
 * "which epoch moved the figure": a policy regression shows up as a
 * specific epoch whose `move`/`fill` attribution jumps, not just as a
 * perturbed end-of-run aggregate.
 *
 * Sinks are per-run objects; sweep workers fill one per RunSpec and
 * submit it to the process-wide collection whose series `slip-bench
 * --report-dir` writes into each run's report (`slip-sim --report`
 * fills one sink directly). Collection is configured globally (see
 * RunObservation) because RunSpec cache keys must not depend on
 * observation settings — observing a run never changes its outcome.
 */

#ifndef SLIP_OBS_EPOCH_SERIES_HH
#define SLIP_OBS_EPOCH_SERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/energy_ledger.hh"
#include "util/json.hh"

namespace slip {
namespace obs {

/** One outer level's deltas within an epoch. */
struct LevelEpoch
{
    std::string name;  ///< level name ("l2", "l3", ...)
    std::uint64_t demandHits = 0;
    EnergyLedger pj{};
};

/** One epoch's deltas (everything since the previous rollover). */
struct EpochRecord
{
    std::uint64_t index = 0;    ///< epoch number within the run
    std::uint64_t endTick = 0;  ///< logical access tick at rollover
    std::uint64_t accesses = 0; ///< core references in the epoch
    std::uint64_t eouOps = 0;
    double l1Pj = 0.0;
    double dramPj = 0.0;
    /** Outer levels (hierarchy levels 1..N-1) in order; serialized as
     * "<name>_demand_hits" / "<name>_pj" keys, so the classic
     * three-level hierarchy keeps its l2/l3-prefixed keys. */
    std::vector<LevelEpoch> levels;
};

/** The full series for one run. */
struct EpochSeries
{
    std::string label;                ///< RunSpec key
    std::uint64_t intervalRefs = 0;   ///< configured epoch length
    std::vector<EpochRecord> records;
};

/**
 * Process-wide observation settings for runs launched by the sweep
 * engine. Deliberately *not* part of RunSpec: results are identical
 * with or without observation, so cache keys must not fork on it.
 */
struct RunObservation
{
    bool collectEpochs = false;
    std::uint64_t epochIntervalRefs = 50'000;
};

RunObservation runObservation();
void setRunObservation(const RunObservation &obs);

/** Hand a finished run's series to the process-wide collection. */
void submitEpochSeries(EpochSeries series);

/** Drain the collection (sorted by label for deterministic output). */
std::vector<EpochSeries> takeEpochSeries();

/** One series as JSON (ledger keyed by cause name). */
json::Value epochSeriesJson(const EpochSeries &series);

/** A ledger as a {"<cause>": pj, ...} object (zero causes omitted). */
json::Value ledgerJson(const EnergyLedger &ledger);

} // namespace obs
} // namespace slip

#endif // SLIP_OBS_EPOCH_SERIES_HH
