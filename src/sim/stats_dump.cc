#include "sim/stats_dump.hh"

#include <iomanip>
#include <string>

namespace slip {

namespace {

const char *kEnergyCatNames[] = {"access", "movement", "metadata",
                                 "other"};
const char *kInsertClassNames[] = {"abp", "partial_bypass", "default",
                                   "other"};

/** One cache level's stats under a component prefix. */
void
dumpLevelStats(const std::string &prefix, const CacheLevelStats &s,
               std::ostream &os)
{
    auto line = [&](const std::string &name, auto value) {
        os << prefix << "." << name << " " << value << "\n";
    };
    line("demand_accesses", s.demandAccesses);
    line("demand_hits", s.demandHits);
    line("demand_misses", s.demandMisses());
    if (s.demandAccesses)
        line("hit_rate",
             double(s.demandHits) / double(s.demandAccesses));
    line("metadata_accesses", s.metadataAccesses);
    line("metadata_hits", s.metadataHits);
    line("insertions", s.insertions);
    line("bypasses", s.bypasses);
    for (unsigned i = 0; i < kNumSublevels; ++i) {
        line("sublevel" + std::to_string(i) + ".hits",
             s.sublevelHits[i]);
        line("sublevel" + std::to_string(i) + ".insertions",
             s.sublevelInsertions[i]);
    }
    for (unsigned i = 0; i < s.insertClass.size(); ++i)
        line(std::string("insert_class.") + kInsertClassNames[i],
             s.insertClass[i]);
    line("movements", s.movements);
    line("writebacks", s.writebacks);
    line("invalidations", s.invalidations);
    for (unsigned i = 0; i < 4; ++i)
        line("reuse_histogram.nr" + std::to_string(i),
             s.reuseHistogram[i]);
    for (unsigned i = 0; i < s.energyPj.size(); ++i)
        line(std::string("energy_pj.") + kEnergyCatNames[i],
             s.energyPj[i]);
    line("energy_pj.total", s.totalEnergyPj());
    line("port_busy_cycles", s.portBusyCycles);
}

} // namespace

void
dumpStats(System &sys, std::ostream &os)
{
    os << std::setprecision(12);
    os << "# slip-sim statistics dump\n";
    os << "system.policy " << policyName(sys.config().policy) << "\n";
    os << "system.cores " << sys.numCores() << "\n";
    os << "system.instructions " << sys.instructions() << "\n";
    os << "system.cycles " << sys.totalCycles() << "\n";
    if (sys.totalCycles() > 0)
        os << "system.ipc "
           << sys.instructions() / sys.totalCycles() << "\n";
    os << "system.full_system_energy_pj " << sys.fullSystemEnergyPj()
       << "\n";

    for (unsigned c = 0; c < sys.numCores(); ++c) {
        const std::string core = "core" + std::to_string(c);
        const CoreStats &cs = sys.coreStats(c);
        os << core << ".accesses " << cs.accesses << "\n";
        os << core << ".l1_hits " << cs.l1Hits << "\n";
        os << core << ".mem_stall_cycles " << cs.memStallCycles << "\n";
        os << core << ".tlb.accesses " << sys.tlb(c).accesses() << "\n";
        os << core << ".tlb.misses " << sys.tlb(c).misses() << "\n";
        os << core << ".tlb.flushes " << sys.tlb(c).flushes() << "\n";
        for (unsigned i = 0; i < sys.numLevels(); ++i)
            if (!sys.levelShared(i))
                dumpLevelStats(core + "." + sys.levelName(i),
                               sys.level(i, c).stats(), os);
    }
    for (unsigned i = 0; i < sys.numLevels(); ++i) {
        if (!sys.levelShared(i))
            continue;
        dumpLevelStats(sys.levelName(i), sys.combinedLevelStats(i),
                       os);
        // NUCA slice breakdown (hot-spotting): each slice dumps under
        // its unit name ("llc.s0", ...). Single-unit shared levels
        // print nothing extra, keeping classic dumps byte-identical.
        for (unsigned u = 0;
             sys.levelSlices(i) > 1 && u < sys.levelUnits(i); ++u)
            dumpLevelStats(sys.levelUnit(i, u).name(),
                           sys.levelUnit(i, u).stats(), os);
    }
    if (sys.coherenceEnabled()) {
        os << "coherence.write_probes " << sys.coherenceWriteProbes()
           << "\n";
        os << "coherence.invalidations "
           << sys.coherenceInvalidations() << "\n";
        os << "coherence.dirty_writebacks "
           << sys.coherenceDirtyWritebacks() << "\n";
    }

    os << "dram.reads " << sys.dram().reads() << "\n";
    os << "dram.writes " << sys.dram().writes() << "\n";
    os << "dram.metadata_accesses " << sys.dram().metadataAccesses()
       << "\n";
    os << "dram.metadata_bits " << sys.dram().metadataBits() << "\n";
    os << "dram.traffic_lines " << sys.dram().totalTrafficLines()
       << "\n";
    os << "dram.energy_pj " << sys.dram().energyPj() << "\n";

    os << "eou.operations " << sys.eouOperations() << "\n";
    if (sys.numSlipSlots() > 0) {
        // Interleaved per code across the SLIP-managed levels, the
        // historical layout ("eou.l2.choice0", "eou.l3.choice0", ...).
        for (std::size_t code = 0;
             code < sys.eou(0)->choiceCounts().size(); ++code) {
            for (unsigned s = 0; s < sys.numSlipSlots(); ++s)
                os << "eou." << sys.levelName(sys.slipLevel(s))
                   << ".choice" << code << " "
                   << sys.eou(s)->choiceCounts()[code] << "\n";
        }
    }
    os << "pagetable.pages " << sys.pageTable().pagesTouched() << "\n";
    os << "metadata.pages " << sys.metadataStore().pagesTracked()
       << "\n";
}

} // namespace slip
