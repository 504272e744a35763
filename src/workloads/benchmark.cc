#include "workloads/benchmark.hh"

#include "util/logging.hh"

namespace slip {

const std::vector<double> &
Workload::phaseTotals()
{
    if (_phaseTotals.size() != _phases.size() ||
        _phaseTotalsComponents != _components.size()) {
        _phaseTotals.clear();
        // Same accumulation order as the original per-call sum, so
        // the cached totals are bit-identical to it.
        for (const Phase &phase : _phases) {
            double total = 0.0;
            for (std::size_t i = 0;
                 i < phase.weights.size() && i < _components.size();
                 ++i)
                total += phase.weights[i];
            _phaseTotals.push_back(total);
        }
        _phaseTotalsComponents = _components.size();
    }
    return _phaseTotals;
}

std::size_t
Workload::pickComponent()
{
    slip_assert(!_phases.empty(), "workload '%s' has no phases",
                _name.c_str());
    const Phase &phase = _phases[_phaseIdx];
    const double total = phaseTotals()[_phaseIdx];
    slip_assert(total > 0.0, "phase with zero total weight");

    double pick = _rng.uniform() * total;
    for (std::size_t i = 0;
         i < phase.weights.size() && i < _components.size(); ++i) {
        pick -= phase.weights[i];
        if (pick <= 0.0)
            return i;
    }
    return _components.size() - 1;
}

std::size_t
Workload::nextBatch(MemAccess *out, std::size_t max)
{
    for (std::size_t n = 0; n < max; ++n) {
        const std::size_t idx = pickComponent();
        out[n].addr = _components[idx]->next(_rng);
        out[n].type = _rng.chance(_writeFraction) ? AccessType::Write
                                                  : AccessType::Read;

        if (++_phasePos >= _phases[_phaseIdx].length) {
            _phasePos = 0;
            _phaseIdx = (_phaseIdx + 1) % _phases.size();
        }
    }
    return max;
}

} // namespace slip
