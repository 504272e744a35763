/**
 * @file
 * Flat DRAM energy/latency/traffic model.
 *
 * The paper models DRAM as 20 pJ/bit (sum of Idd4 and Idd7RW energies
 * from Vogelsang) and a 100-cycle access latency. We additionally track
 * demand vs. metadata traffic separately so the metadata-overhead
 * experiments (Figure 12, Section 4.2) can be reproduced.
 */

#ifndef SLIP_DRAM_DRAM_MODEL_HH
#define SLIP_DRAM_DRAM_MODEL_HH

#include "energy/energy_params.hh"
#include "mem/types.hh"
#include "obs/metrics.hh"

namespace slip {

/** Terminal memory: every access hits, costs fixed energy and latency. */
class DramModel
{
  public:
    explicit DramModel(const TechParams &tech)
        : _pjPerBit(tech.dramPjPerBit), _latency(tech.dramLatency),
          _ctrDemand(&obs::counter("dram.demand_accesses")),
          _ctrMetadata(&obs::counter("dram.metadata_accesses"))
    {}

    /** Account one full-line demand access (read or writeback). */
    Cycles
    access(bool is_write)
    {
        ++(is_write ? _writes : _reads);
        // Attribution is derived from the traffic counters
        // (demandEnergyPj/metadataEnergyPj), not a ledger bin.
        _energyPj += lineEnergy();  // slip-lint: allow(energy-pairing)
        _ctrDemand->add();
        return _latency;
    }

    /**
     * Account a metadata transfer of @p bits (reuse-distance
     * distributions and PTE policy updates are far smaller than a line;
     * they are charged per bit).
     */
    Cycles
    metadataAccess(unsigned bits)
    {
        ++_metadataAccesses;
        _metadataBits += bits;
        // Derived attribution, as in access() above.
        _energyPj += _pjPerBit * bits;  // slip-lint: allow(energy-pairing)
        _ctrMetadata->add();
        return _latency;
    }

    /** Energy of one full-line transfer, pJ. */
    double lineEnergy() const { return _pjPerBit * kLineSize * 8.0; }

    Cycles latency() const { return _latency; }

    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }

    /** Demand line transfers (reads + writebacks). */
    std::uint64_t demandAccesses() const { return _reads + _writes; }

    std::uint64_t metadataAccesses() const { return _metadataAccesses; }
    std::uint64_t metadataBits() const { return _metadataBits; }

    /**
     * Total traffic in line-equivalents including metadata, for the
     * relative-DRAM-traffic results.
     */
    double
    totalTrafficLines() const
    {
        return static_cast<double>(demandAccesses()) +
               static_cast<double>(_metadataBits) / (kLineSize * 8.0);
    }

    double energyPj() const { return _energyPj; }

    /**
     * Energy-attribution split of energyPj(), derived from the traffic
     * counts (demand lines vs. per-bit metadata). The two causes sum
     * to energyPj() within FP accumulation tolerance.
     */
    double
    demandEnergyPj() const
    {
        return static_cast<double>(demandAccesses()) * lineEnergy();
    }
    double
    metadataEnergyPj() const
    {
        return _pjPerBit * static_cast<double>(_metadataBits);
    }

    void
    resetStats()
    {
        _reads = _writes = _metadataAccesses = _metadataBits = 0;
        _energyPj = 0.0;
    }

  private:
    double _pjPerBit;
    Cycles _latency;

    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
    std::uint64_t _metadataAccesses = 0;
    std::uint64_t _metadataBits = 0;
    double _energyPj = 0.0;

    obs::Counter *_ctrDemand;
    obs::Counter *_ctrMetadata;
};

} // namespace slip

#endif // SLIP_DRAM_DRAM_MODEL_HH
