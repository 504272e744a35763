/**
 * @file
 * Workload composition: weighted, phased mixtures of Patterns.
 *
 * A Workload owns a set of pattern components and one or more phases;
 * each phase assigns a weight to every component and runs for a fixed
 * number of references before the next phase begins (phases cycle).
 * Phase changes reproduce the time-varying reuse behaviour the paper
 * calls out for mcf (Section 4.1), which time-based sampling must
 * adapt to.
 */

#ifndef SLIP_WORKLOADS_BENCHMARK_HH
#define SLIP_WORKLOADS_BENCHMARK_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/trace.hh"
#include "workloads/pattern.hh"

namespace slip {

/** A phased, weighted mixture of access patterns. */
class Workload : public AccessSource
{
  public:
    /** One phase: per-component weights and a length in references. */
    struct Phase
    {
        std::vector<double> weights;
        std::uint64_t length;
    };

    /**
     * @param name           display name
     * @param write_fraction fraction of references that are stores
     * @param seed           generator seed (reproducible streams)
     */
    Workload(std::string name, double write_fraction, std::uint64_t seed)
        : _name(std::move(name)), _writeFraction(write_fraction),
          _rng(seed)
    {}

    const std::string &name() const { return _name; }

    /** Add a component; returns its index for phase weights. */
    std::size_t
    addPattern(std::unique_ptr<Pattern> pattern)
    {
        _components.push_back(std::move(pattern));
        return _components.size() - 1;
    }

    /** Append a phase. Weight vectors are padded with zeros. */
    void
    addPhase(std::vector<double> weights, std::uint64_t length)
    {
        _phases.push_back({std::move(weights), length});
    }

    std::size_t nextBatch(MemAccess *out, std::size_t max) override;

  private:
    /** Pick a component index by the current phase's weights. */
    std::size_t pickComponent();

    /** Cached per-phase weight totals (recomputed on layout change). */
    const std::vector<double> &phaseTotals();

    std::string _name;
    double _writeFraction;
    Random _rng;

    std::vector<std::unique_ptr<Pattern>> _components;
    std::vector<Phase> _phases;

    std::vector<double> _phaseTotals;
    std::size_t _phaseTotalsComponents = 0;

    std::size_t _phaseIdx = 0;
    std::uint64_t _phasePos = 0;
};

/** Adds a fixed offset to another source (multicore address spaces). */
class OffsetSource : public AccessSource
{
  public:
    OffsetSource(std::unique_ptr<AccessSource> inner, Addr offset)
        : _inner(std::move(inner)), _offset(offset)
    {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        const std::size_t n = _inner->nextBatch(out, max);
        for (std::size_t i = 0; i < n; ++i)
            out[i].addr += _offset;
        return n;
    }

  private:
    std::unique_ptr<AccessSource> _inner;
    Addr _offset;
};

} // namespace slip

#endif // SLIP_WORKLOADS_BENCHMARK_HH
