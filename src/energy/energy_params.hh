/**
 * @file
 * Published energy/latency parameter sets (Tables 1 and 2 of the paper)
 * for 45 nm, plus a scaled 22 nm set used by the technology-node study
 * in Section 6.
 *
 * The experiment harnesses consume these published values directly. The
 * geometry model in geometry.hh independently re-derives the 45 nm
 * sublevel energies from physical parameters; tests check the agreement.
 */

#ifndef SLIP_ENERGY_ENERGY_PARAMS_HH
#define SLIP_ENERGY_ENERGY_PARAMS_HH

#include <array>
#include <cstdint>
#include <string>

#include "mem/types.hh"

namespace slip {

/** Number of sublevels per lower-level cache in the evaluation. */
constexpr unsigned kNumSublevels = 3;

/** Per-cache-level energy and latency parameters. */
struct LevelEnergyParams
{
    /** Average access energy of the unmodified (baseline) cache, pJ. */
    double baselineAccessPj;
    /** Baseline access latency, core cycles. */
    Cycles baselineLatency;
    /** Per-sublevel access energy, pJ (nearest first). */
    std::array<double, kNumSublevels> sublevelAccessPj;
    /** Per-sublevel access latency, core cycles. */
    std::array<Cycles, kNumSublevels> sublevelLatency;
    /** Energy of one metadata (12 b policy+timestamp) access, pJ. */
    double metadataPj;

    bool operator==(const LevelEnergyParams &) const = default;
};

/** Full technology parameter set. */
struct TechParams
{
    std::string name;            ///< e.g. "45nm"
    double wirePjPerBitMm;       ///< wire energy per transition
    double wireNsPerMm;          ///< wire delay

    LevelEnergyParams l2;        ///< 256 KB, 16-way
    LevelEnergyParams l3;        ///< 2 MB, 16-way

    double dramPjPerBit;         ///< DRAM access energy per bit
    Cycles dramLatency;          ///< DRAM access latency, cycles

    double movementQueuePj;      ///< movement-queue lookup, pJ
    double eouOpPj;              ///< one EOU optimization, pJ
    Cycles eouLatency;           ///< EOU latency, cycles

    double l1AccessPj;           ///< L1 access energy (full-system study)
    double corePjPerInstr;       ///< core dynamic energy per instruction

    /** DRAM energy for one full line transfer (pJ). */
    double
    dramLineEnergy() const
    {
        return dramPjPerBit * kLineSize * 8.0;
    }

    bool operator==(const TechParams &) const = default;
};

/** The 45 nm parameter set of Tables 1 and 2. */
TechParams tech45nm();

/**
 * A 22 nm parameter set derived from 45 nm: transistor (bank-internal)
 * energy scales with C*V^2 (x0.45), wire energy per mm scales weakly
 * (x0.8) while distances shrink with feature size (x0.49); DRAM is a
 * separate technology and does not scale. Section 6 reports SLIP+ABP
 * saving 36%/25% at L2/L3 under this study.
 */
TechParams tech22nm();

} // namespace slip

#endif // SLIP_ENERGY_ENERGY_PARAMS_HH
