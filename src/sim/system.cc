#include "sim/system.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/perf_counters.hh"
#include "sim/policy_registry.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace slip {

SystemConfig::SystemConfig() : tech(tech45nm()) {}

namespace {

/** Default SLIP codes for unseen pages. */
PolicyPair
defaultPolicies()
{
    PolicyPair p;
    p.code[kSlipL2] = SlipPolicy::defaultCode(kNumSublevels);
    p.code[kSlipL3] = SlipPolicy::defaultCode(kNumSublevels);
    return p;
}

} // namespace

System::System(const SystemConfig &cfg)
    : _cfg(cfg),
      _samplingAlways(cfg.samplingMode == SamplingMode::Always),
      _l1RefPj(cfg.l1HitsPerMiss * cfg.tech.l1AccessPj),
      _rdBlockPages(cfg.rdBlockPages), _dram(cfg.tech),
      _defaultPolicies(defaultPolicies()),
      _pageTable(_defaultPolicies), _metadata(cfg.rdBinBits),
      _sampling(cfg.nsamp, cfg.nstab,
                cfg.samplingMode == SamplingMode::TimeBased,
                cfg.seed * 977 + 13)
{
    slip_assert(cfg.numCores >= 1, "at least one core required");

    HierarchyDefaults defs;
    defs.policy = policyCliName(cfg.policy);
    defs.topology = cfg.topology;
    defs.repl = cfg.repl;
    defs.randomVictim = cfg.randomSublevelVictim;
    defs.inclusiveLast = cfg.inclusiveL3;
    defs.tech = &cfg.tech;
    std::string err;
    std::vector<ResolvedLevel> resolved =
        resolveHierarchy(cfg.hierarchy, defs, &err);
    if (resolved.empty())
        fatal("invalid hierarchy: %s", err.c_str());
    _l1Latency = resolved[0].energy.baselineLatency;

    // Build every level from the same path: one CacheLevel per unit
    // plus a registry-resolved controller. SLIP-managed levels claim
    // reuse-distance slots in order.
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        const ResolvedLevel &spec = resolved[i];
        const LevelPolicyInfo *pol = findLevelPolicy(spec.policy);
        if (!pol)
            fatal("level %zu ('%s'): unknown policy '%s'", i,
                  spec.name.c_str(), spec.policy.c_str());

        Level lvl;
        lvl.spec = spec;
        lvl.abp = pol->abp;
        // Non-SLIP controllers receive the would-be slot of their
        // level so their derived RNG streams match the classic
        // layout (level 1 -> 0, deeper levels -> 1).
        unsigned ctrl_slot =
            i == 0 ? 0
                   : std::min<unsigned>(static_cast<unsigned>(i) - 1,
                                        kMaxSlipLevels - 1);
        if (pol->slip) {
            slip_assert(i > 0, "level 0 cannot be SLIP-managed");
            if (_slipLevels.size() >= kMaxSlipLevels)
                fatal("level %zu ('%s'): more than %u SLIP-managed "
                      "levels (line/page metadata holds %u RD slots)",
                      i, spec.name.c_str(), kMaxSlipLevels,
                      kMaxSlipLevels);
            lvl.slot = static_cast<int>(_slipLevels.size());
            ctrl_slot = static_cast<unsigned>(lvl.slot);
            _slipLevels.push_back(static_cast<unsigned>(i));
            _isSlip = true;
        }

        LevelPolicyArgs args;
        args.randomSublevelVictim = spec.randomVictim;
        args.systemSeed = cfg.seed;

        // Shared levels have one unit per address-interleaved slice
        // (one total when unsliced), private levels one per core. A
        // slice holds sizeBytes/slices and skips the slice-select
        // bits when indexing sets, so the S slices together behave
        // like the monolithic array partitioned by line % S.
        const unsigned nunits =
            spec.shared ? spec.slices : cfg.numCores;
        for (unsigned u = 0; u < nunits; ++u) {
            CacheLevelConfig c;
            c.name = spec.shared
                         ? (spec.slices > 1
                                ? spec.name + ".s" + std::to_string(u)
                                : spec.name)
                         : spec.name + "." + std::to_string(u);
            c.sizeBytes = spec.sizeBytes / (spec.shared ? spec.slices
                                                        : 1);
            c.ways = spec.ways;
            c.topology = spec.topology;
            c.energy = spec.energy;
            c.sublevelWays = spec.sublevelWays;
            c.waysPerRow = spec.waysPerRow;
            c.setShift = spec.shared ? exactLog2(spec.slices) : 0;
            c.repl = spec.repl;
            c.movementQueueEnabled = pol->movementQueue;
            c.slipMetadataEnabled = pol->slip;
            c.movementQueuePj = cfg.tech.movementQueuePj;
            c.seed = cfg.seed * spec.seedMul + spec.seedAdd + u;
            lvl.units.push_back(std::make_unique<CacheLevel>(c));
            lvl.ctrls.push_back(
                pol->make(*lvl.units.back(), ctrl_slot, args));
        }
        if (spec.coherent) {
            slip_assert(_coherentLevel < 0,
                        "at most one coherent level");
            slip_assert(cfg.numCores <= 64,
                        "coherence-lite sharer masks track at most 64 "
                        "cores, got %u", cfg.numCores);
            _coherentLevel = static_cast<int>(i);
        }
        _levels.push_back(std::move(lvl));
    }

    for (unsigned c = 0; c < cfg.numCores; ++c)
        _cores.push_back(std::make_unique<Core>(cfg.tlbEntries));

    // EOUs: each SLIP-managed level's unit sees the next level's mean
    // access energy as the miss cost; the outermost sees the DRAM
    // line energy (Equation 4).
    for (unsigned slot = 0; slot < _slipLevels.size(); ++slot) {
        const unsigned li = _slipLevels[slot];
        Level &lvl = _levels[li];
        SlipEnergyModelParams m;
        const CacheTopology &topo = lvl.units[0]->topology();
        for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
            m.sublevelEnergy[sl] = topo.sublevelEnergy(sl);
            m.sublevelWays[sl] = topo.sublevelWays(sl);
        }
        m.nextLevelEnergy =
            li + 1 < _levels.size()
                ? _levels[li + 1].units[0]->topology().meanAccessEnergy()
                : _dram.lineEnergy();
        m.includeInsertion = cfg.eouIncludeInsertion;
        // An inclusive level must never fully bypass (Section 4.3).
        _eous.push_back(std::make_unique<Eou>(
            SlipEnergyModel(m), lvl.abp && !lvl.spec.inclusive));
    }

    _epochLvlBase.assign(_levels.size() - 1, obs::EnergyLedger{});
    _epochLvlHitsBase.assign(_levels.size() - 1, 0);
    _walker = Walker(_levels.size(), numLevels());
    _metaCtx.policies = _defaultPolicies;
    _metaCtx.useDefault = true;  // metadata lines always use the Default SLIP

    // Private-prefix / shared-suffix boundary for the pipelined run:
    // the first shared level, valid only when every deeper level is
    // shared too (else numLevels(), meaning "no clean boundary").
    _firstShared = static_cast<unsigned>(_levels.size());
    for (unsigned i = 0; i < _levels.size(); ++i) {
        if (_levels[i].spec.shared) {
            _firstShared = i;
            break;
        }
    }
    for (unsigned i = _firstShared; i < _levels.size(); ++i) {
        if (!_levels[i].spec.shared) {
            _firstShared = static_cast<unsigned>(_levels.size());
            break;
        }
    }
    // resolveHierarchy guarantees the coherent level is the first
    // shared one with a clean private-prefix/shared-suffix split —
    // coherenceDemand's sweep over levels [0, _coherentLevel) relies
    // on every one of them being private.
    SLIP_CHECK(_coherentLevel < 0 ||
               static_cast<unsigned>(_coherentLevel) == _firstShared);

    // Post-construction hierarchy sanity (resolveHierarchy validated
    // the spec; these state what the built System relies on).
    SLIP_CHECK(_slipLevels.size() <= kMaxSlipLevels);
    SLIP_CHECK(_eous.size() == _slipLevels.size());
    SLIP_CHECK(_firstShared <= _levels.size());
    SLIP_CHECK_EXPENSIVE(
        if (_firstShared < _levels.size())
            for (unsigned i = 0; i < _levels.size(); ++i)
                SLIP_CHECK_MSG(_levels[i].spec.shared ==
                                   (i >= _firstShared),
                               "level %u breaks the private-prefix / "
                               "shared-suffix boundary at %u", i,
                               _firstShared));
}

System::~System() = default;

PageCtx
System::pageCtx(Addr page)
{
    PageCtx ctx;
    ctx.page = page;
    if (!_isSlip) {
        ctx.policies = _defaultPolicies;
        return ctx;
    }
    const Pte &pte = _pageTable.pte(rdBlock(page));
    ctx.policies = pte.policies;
    if (_samplingAlways) {
        ctx.collectRd = true;
        ctx.useDefault = false;
    } else {
        ctx.collectRd = pte.sampling;
        ctx.useDefault = pte.sampling;
    }
    return ctx;
}

void
System::recordRd(const PageCtx &ctx, int slot, int bin)
{
    if (slot < 0 || !ctx.collectRd || !_isSlip || bin < 0)
        return;
    perf::ScopedPhase profile_scope(perf::Phase::RdProfile);
    // Only sampling pages reach here, so this is off the hot path.
    static obs::Counter &records_ctr = obs::counter("rd.records");
    records_ctr.add();
    _metadata.page(rdBlock(ctx.page))
        .dist[slot]
        .record(static_cast<unsigned>(bin));
}

// The front step and the level-0 step run once per reference in every
// executor. They are forced inline so the serial loop keeps the call
// depth it had before the executors shared them (GCC otherwise emits
// both out of line).
[[gnu::always_inline]] inline void
System::frontStep(unsigned core_id, const MemAccess &acc,
                  pipe::FrontRef &fr)
{
    Core &core = *_cores[core_id];
    if (++core.stats.accessesSinceSwitch >=
        _cfg.contextSwitchInterval) {
        core.tlb.flush();
        core.stats.accessesSinceSwitch = 0;
    }
    fr.page = pageAddr(acc.addr);
    fr.line = lineAddr(acc.addr);
    fr.flags = acc.isWrite() ? pipe::kRefPresent | pipe::kRefWrite
                             : pipe::kRefPresent;
    if (!core.tlb.lookup(fr.page)) {
        // Inserting before the miss work runs (tlbMiss) leaves the
        // TLB in the same state: that work never reads the TLB.
        fr.flags |= pipe::kRefTlbMiss;
        Addr evicted = 0;
        if (core.tlb.insert(fr.page, evicted)) {
            fr.flags |= pipe::kRefTlbEvict;
            fr.evictedPage = evicted;
        }
    }
}

Cycles
System::tlbMiss(unsigned core_id, const pipe::FrontRef &fr, unsigned lo)
{
    Cycles lat = 0;
    const Addr block = rdBlock(fr.page);
    Pte &pte = _pageTable.pte(block);

    // Page walk: the PTE line is fetched through the hierarchy. This
    // exists in every configuration, so it is demand traffic.
    const Addr pte_line = _pageTable.pteLine(fr.page);
    lat += lo == 0 ? readWalk(_walker, core_id, 1, pte_line, _metaCtx,
                              AccessClass::Demand, pipe::kRefPteShared)
                   : resumeWalk(core_id, lo, fr, pte_line, _metaCtx,
                                pipe::kRefPteShared, 0, fr.nPteWb);

    if (_isSlip) {
        const Addr mline = _metadata.metadataLine(block);
        if (_samplingAlways) {
            // Pre-sampling design: fetch the distribution and rerun
            // the EOU on every TLB miss (Section 4.1's traffic
            // problem, the tbl_sampling_traffic ablation).
            lat += readWalk(_walker, core_id, 1, mline, _metaCtx,
                            AccessClass::Metadata, 0);
            const PageMetadata &md = _metadata.page(block);
            PolicyPair fresh = pte.policies;
            {
                perf::ScopedPhase eou_scope(perf::Phase::Eou);
                for (unsigned s = 0; s < _slipLevels.size(); ++s)
                    fresh.code[s] = _eous[s]->optimize(md.dist[s].bins());
            }
            if (obs::traceEnabled())
                obs::emit(obs::EventKind::EouDecision, block,
                          fresh.code[0], fresh.code[1]);
            if (!(fresh == pte.policies)) {
                pte.policies = fresh;
                pte.dirty = true;
                ++pte.updates;
                if (obs::traceEnabled())
                    obs::emit(obs::EventKind::TlbUpdate, block, 1,
                              pte.updates);
            }
            for (unsigned li : _slipLevels)
                _levels[li].unit(core_id, mline).chargeEnergy(
                    EnergyCat::Other, obs::EnergyCause::EouOp,
                    _cfg.tech.eouOpPj);
            lat += 1;  // TLB blocked for the policy update
            pte.sampling = true;
        } else {
            const bool was_sampling = pte.sampling;
            const bool now_sampling = _sampling.transition(was_sampling);
            if (was_sampling) {
                // Distribution metadata is only fetched for sampling
                // pages (Section 4.2).
                lat += readWalk(_walker, core_id, 1, mline, _metaCtx,
                                AccessClass::Metadata, 0);
            }
            if (was_sampling && !now_sampling) {
                // Transition to stable: recompute the page's SLIPs.
                const PageMetadata &md = _metadata.page(block);
                PolicyPair fresh = pte.policies;
                {
                    perf::ScopedPhase eou_scope(perf::Phase::Eou);
                    for (unsigned s = 0; s < _slipLevels.size(); ++s)
                        fresh.code[s] =
                            _eous[s]->optimize(md.dist[s].bins());
                }
                if (obs::traceEnabled())
                    obs::emit(obs::EventKind::EouDecision, block,
                              fresh.code[0], fresh.code[1]);
                if (!(fresh == pte.policies)) {
                    pte.policies = fresh;
                    pte.dirty = true;
                }
                ++pte.updates;
                for (unsigned li : _slipLevels)
                    _levels[li].unit(core_id, mline).chargeEnergy(
                        EnergyCat::Other, obs::EnergyCause::EouOp,
                        _cfg.tech.eouOpPj);
                lat += 1;  // TLB blocked for the policy update
            }
            if (was_sampling != now_sampling && obs::traceEnabled())
                obs::emit(obs::EventKind::TlbUpdate, block,
                          now_sampling ? 1 : 0, pte.updates);
            pte.sampling = now_sampling;
        }
    }

    if (fr.flags & pipe::kRefTlbEvict) {
        const Addr eblock = rdBlock(fr.evictedPage);
        Pte &epte = _pageTable.pte(eblock);
        if (_isSlip && epte.sampling && !_samplingAlways) {
            // Write the evicted page's distribution back (off the
            // critical path of the missing access).
            metadataWrite(core_id, _metadata.metadataLine(eblock),
                          AccessClass::Metadata);
        }
        if (epte.dirty) {
            metadataWrite(core_id, _pageTable.pteLine(fr.evictedPage),
                          AccessClass::Demand);
            epte.dirty = false;
        }
    }
    return lat;
}

Cycles
System::metadataWrite(unsigned core_id, Addr line, AccessClass cls)
{
    // Non-allocating write-through: update in place where cached,
    // otherwise send the small record straight to DRAM.
    for (unsigned i = 1; i < _levels.size(); ++i) {
        CacheLevel &unit = _levels[i].unit(core_id, line);
        const LookupResult lr = unit.lookup(line, cls);
        if (lr.hit)
            return unit.recordWriteback(lr.setIndex, lr.way);
    }
    if (cls == AccessClass::Metadata)
        _dram.metadataAccess(_metadata.recordBits());
    else
        _dram.access(true);
    return _dram.latency();
}

Cycles
System::readWalk(Walker &w, unsigned core_id, unsigned lo, Addr line,
                 const PageCtx &ctx, AccessClass cls, std::uint16_t cross)
{
    Cycles lat = 0;
    unsigned hit_at = w.bound;  // sentinel: missed every level
    for (unsigned i = lo; i < w.bound; ++i) {
        Level &lvl = _levels[i];
        AccessResult r =
            lvl.ctrl(core_id, line).access(line, false, ctx, cls);
        if (r.hit) {
            recordRd(ctx, lvl.slot, r.rdBin);
            lat += r.latency;
            hit_at = i;
            break;
        }
        recordRd(ctx, lvl.slot, static_cast<int>(kNumSublevels));
        lat += lvl.unit(core_id, line).topology().baselineLatency();
    }
    if (hit_at == w.bound) {
        if (w.bound < _levels.size()) {
            // A full-front worker's walk: the merge stage continues it
            // from the bound (resumeWalk).
            w.capture->flags |= cross;
        } else {
            // Distribution-metadata line fetches count as metadata
            // traffic at the DRAM; PTE walks are ordinary demand.
            lat += cls == AccessClass::Metadata
                       ? _dram.metadataAccess(kLineSize * 8)
                       : _dram.access(false);
        }
    }
    // On a worker, these private fills run before the merge stage's
    // shared fills — the reverse of the serial order — but neither
    // side reads the other's state, and the writebacks they send past
    // the bound are replayed in capture order after the shared fills,
    // exactly where the serial recursion produces them.
    for (unsigned i = hit_at; i-- > lo;) {
        Level &lvl = _levels[i];
        lvl.ctrl(core_id, line).fill(line, false, ctx, w.evs[i]);
        drainEvictions(w, i, core_id);
    }
    return lat;
}

void
System::writebackToLevel(Walker &w, unsigned i, unsigned core_id,
                         Addr line)
{
    if (i >= w.bound) {
        // Crossing a worker's bound: capture the line for the merge
        // stage instead (fullFrontEligible bounds the count).
        slip_assert(w.capture->nWb < pipe::kMaxFrontWb,
                    "front-end writeback capture overflow");
        w.capture->wb[w.capture->nWb++] = line;
        return;
    }
    PageCtx ctx = pageCtx(pageOfLine(line));
    ctx.collectRd = false;  // writebacks are not demand reuse

    Level &lvl = _levels[i];
    CacheLevel &unit = lvl.unit(core_id, line);
    const LookupResult lr = unit.lookup(line, AccessClass::Demand);
    if (lr.hit) {
        unit.recordWriteback(lr.setIndex, lr.way);
        return;
    }
    lvl.ctrl(core_id, line).fill(line, true, ctx, w.evs[i]);
    drainEvictions(w, i, core_id);
}

void
System::drainEvictions(Walker &w, unsigned i, unsigned core_id)
{
    Level &lvl = _levels[i];
    const bool last = i + 1 == _levels.size();
    for (const Eviction &ev : w.evs[i]) {
        bool dirty = ev.dirty;
        if (static_cast<int>(i) == _coherentLevel) {
            // The line left the coherence point: its sharers are
            // cleaned out by the inclusive back-invalidation below,
            // so the directory entry is retired (mask 0 = absent).
            if (std::uint64_t *mask = _directory.find(ev.lineAddr))
                *mask = 0;
        }
        if (lvl.spec.inclusive) {
            // Back-invalidate upper-level copies; a dirty copy there
            // must reach the next level since this entry is gone.
            for (unsigned j = 0; j < i; ++j) {
                Level &upper = _levels[j];
                if (upper.spec.shared) {
                    bool d = false;
                    upper.unit(core_id, ev.lineAddr)
                        .invalidate(ev.lineAddr, &d);
                    dirty = dirty || d;
                } else if (lvl.spec.shared) {
                    // Shared level evicting: any core may hold it.
                    for (unsigned u = 0;
                         u < static_cast<unsigned>(upper.units.size());
                         ++u) {
                        bool d = false;
                        upper.units[u]->invalidate(ev.lineAddr, &d);
                        dirty = dirty || d;
                    }
                } else {
                    bool d = false;
                    upper.units[core_id]->invalidate(ev.lineAddr, &d);
                    dirty = dirty || d;
                }
            }
            // Inclusivity post-condition: no copy remains in any unit
            // the sweep above was responsible for.
            SLIP_CHECK_EXPENSIVE(
                for (unsigned j = 0; j < i; ++j) {
                    const Level &upper = _levels[j];
                    if (upper.spec.shared) {
                        SLIP_CHECK(!upper.unit(core_id, ev.lineAddr)
                                        .peek(ev.lineAddr)
                                        .hit);
                    } else if (lvl.spec.shared) {
                        for (const auto &unit : upper.units)
                            SLIP_CHECK(!unit->peek(ev.lineAddr).hit);
                    } else {
                        SLIP_CHECK(!upper.units[core_id]
                                        ->peek(ev.lineAddr)
                                        .hit);
                    }
                });
        }
        if (dirty) {
            if (last)
                _dram.access(true);
            else
                writebackToLevel(w, i + 1, core_id, ev.lineAddr);
        }
    }
    w.evs[i].clear();
}

[[gnu::always_inline]] inline Cycles
System::level0Step(Walker &w, unsigned core_id, pipe::FrontRef &fr,
                   const PageCtx &ctx)
{
    Level &l0 = _levels[0];
    const unsigned u0 = l0.spec.shared ? 0 : core_id;
    CacheLevel &l1 = *l0.units[u0];
    LevelController &l1ctrl = *l0.ctrls[u0];
    const bool is_write = (fr.flags & pipe::kRefWrite) != 0;

    // The L1-hit traffic each simulated reference stands for (the
    // generators emit the post-L1 stream; see SystemConfig).
    l1.chargeEnergy(EnergyCat::Access, obs::EnergyCause::DemandHit,
                    _l1RefPj);

    PageCtx l1ctx;  // the innermost level is SLIP-agnostic
    if (l1ctrl.access(fr.line, is_write, l1ctx, AccessClass::Demand).hit) {
        fr.flags |= pipe::kRefL1Hit;
        return 0;
    }
    const Cycles lat = readWalk(w, core_id, 1, fr.line, ctx,
                                AccessClass::Demand,
                                pipe::kRefDemandShared);
    l1ctrl.fill(fr.line, is_write, ctx, w.evs[0]);
    drainEvictions(w, 0, core_id);
    return lat;
}

void
System::access(unsigned core_id, const MemAccess &acc)
{
    slip_assert(core_id < _cores.size(), "core %u out of range",
                core_id);
    pipe::FrontRef fr;
    frontStep(core_id, acc, fr);
    accessImpl(core_id, fr, 0);
}

void
System::accessImpl(unsigned core_id, pipe::FrontRef &fr, unsigned lo)
{
    SLIP_CHECK_MSG(fr.nPteWb <= fr.nWb && fr.nWb <= pipe::kMaxFrontWb,
                   "merge descriptor writeback counts out of range "
                   "(%u pte, %u total)", fr.nPteWb, fr.nWb);
    Core &core = *_cores[core_id];
    ++_accessTick;
    Cycles lat = fr.frontLat;

    if (fr.flags & pipe::kRefTlbMiss) {
        perf::ScopedPhase tlb_scope(perf::Phase::Tlb);
        lat += tlbMiss(core_id, fr, lo);
    }

    const PageCtx ctx = pageCtx(fr.page);
    perf::ScopedPhase walk_scope(perf::Phase::CacheWalk);
    if (lo == 0)
        lat += level0Step(_walker, core_id, fr, ctx);
    else if (!(fr.flags & pipe::kRefL1Hit))
        lat += resumeWalk(core_id, lo, fr, fr.line, ctx,
                          pipe::kRefDemandShared, fr.nPteWb, fr.nWb);
    lat += _l1Latency;
    if (fr.flags & pipe::kRefL1Hit)
        ++core.stats.l1Hits;

    // Coherence-lite bookkeeping runs inside accessImpl so the merge
    // stage of a pipelined run replays it in serial reference order
    // for free (byte-identity with --run-threads 1).
    if (_coherentLevel >= 0)
        coherenceDemand(core_id, fr.line,
                        (fr.flags & pipe::kRefWrite) != 0);

    ++core.stats.accesses;
    core.stats.memStallCycles += static_cast<double>(lat - _l1Latency);

    if (_cfg.epochIntervalRefs != 0 &&
        ++_epochAccesses >= _cfg.epochIntervalRefs)
        rollEpoch();
}

void
System::coherenceDemand(unsigned core_id, Addr line, bool is_write)
{
    // Coherence-lite (DESIGN.md §5c): the coherent shared level is
    // the coherence point and its inclusive directory is a per-line
    // sharer bitmask in an append-only map (mask 0 = absent). Masks
    // are conservative — a bit can outlive the private copy it
    // describes (silent L1/L2 evictions are not reported), so a stale
    // sharer costs one wasted modelled probe, never correctness.
    // Directory traffic is background mesh traffic: it charges energy
    // to the Coherence cause bin but adds no demand latency.
    Level &lvl = _levels[static_cast<unsigned>(_coherentLevel)];
    CacheLevel &slice = lvl.unit(core_id, line);
    const std::uint64_t self = std::uint64_t{1} << core_id;

    if (!is_write) {
        // Read sharing: join the sharer set. The bit rides on the
        // demand lookup that already probed this slice's tags, so no
        // extra energy is charged.
        _directory.getOrCreate(line, [] { return std::uint64_t{0}; }) |=
            self;
        return;
    }

    // Write: one directory probe at the home slice, then invalidate
    // every other sharer's private copies in ascending core order.
    static obs::Counter &probes_ctr =
        obs::counter("coherence.write_probes");
    static obs::Counter &inval_ctr =
        obs::counter("coherence.invalidations");
    probes_ctr.add();
    ++_cohWriteProbes;
    slice.chargeEnergy(EnergyCat::Metadata, obs::EnergyCause::Coherence,
                       slice.topology().metadataEnergy());

    std::uint64_t &mask =
        _directory.getOrCreate(line, [] { return std::uint64_t{0}; });
    const std::uint64_t others = mask & ~self;
    bool any_dirty = false;
    for (unsigned c = 0; c < _cores.size() && (others >> c) != 0; ++c) {
        if (!(others & (std::uint64_t{1} << c)))
            continue;
        bool dirty = false;
        for (unsigned j = 0;
             j < static_cast<unsigned>(_coherentLevel); ++j) {
            // Every level above the coherence point is private
            // (validated in resolveHierarchy), so the sharer's copy
            // can only live in its own per-core units.
            CacheLevel &priv = *_levels[j].units[c];
            priv.chargeEnergy(EnergyCat::Metadata,
                              obs::EnergyCause::Coherence,
                              priv.topology().metadataEnergy());
            bool d = false;
            priv.invalidate(line, &d);
            dirty = dirty || d;
        }
        inval_ctr.add();
        ++_cohInvalidations;
        any_dirty = any_dirty || dirty;
    }
    if (any_dirty) {
        // A peer's dirty copy folds into the coherence point before
        // the writer proceeds. Inclusion guarantees the line is
        // present here; the DRAM fallback only covers a copy whose
        // home entry is mid-replacement.
        static obs::Counter &wb_ctr =
            obs::counter("coherence.dirty_writebacks");
        const LookupResult lr = slice.peek(line);
        SLIP_CHECK_MSG(lr.hit,
                       "coherent level lost included line %llx",
                       static_cast<unsigned long long>(line));
        if (lr.hit) {
            slice.recordWriteback(lr.setIndex, lr.way);
            wb_ctr.add();
            ++_cohDirtyWritebacks;
        } else
            _dram.access(true);
    }
    mask = self;  // write-invalidate leaves the writer sole sharer
}

obs::EnergyLedger
System::levelLedger(unsigned i) const
{
    obs::EnergyLedger sum{};
    for (const auto &unit : _levels[i].units)
        obs::ledgerMerge(sum, unit->stats().causePj);
    return sum;
}

void
System::rollEpoch()
{
    obs::EpochRecord rec;
    rec.index = _epochIndex++;
    rec.endTick = _accessTick;
    rec.accesses = _epochAccesses;
    _epochAccesses = 0;

    const double l1_pj = l1EnergyPj();
    const double dram_pj = _dram.energyPj();
    const std::uint64_t eou_ops = eouOperations();

    std::uint64_t hits_delta_sum = 0;
    for (unsigned i = 1; i < numLevels(); ++i) {
        const obs::EnergyLedger ledger = levelLedger(i);
        std::uint64_t hits = 0;
        for (const auto &unit : _levels[i].units)
            hits += unit->stats().demandHits;

        // The epoch deltas subtract monotone accumulators; a backwards
        // step means a stats reset raced the epoch bases.
        SLIP_CHECK_MSG(hits >= _epochLvlHitsBase[i - 1],
                       "level %u demand-hit counter went backwards "
                       "across an epoch", i);
        obs::LevelEpoch le;
        le.name = _levels[i].spec.name;
        for (std::size_t c = 0; c < obs::kNumEnergyCauses; ++c) {
            SLIP_CHECK(ledger[c] >= _epochLvlBase[i - 1][c]);
            le.pj[c] = ledger[c] - _epochLvlBase[i - 1][c];
        }
        le.demandHits = hits - _epochLvlHitsBase[i - 1];
        hits_delta_sum += le.demandHits;
        rec.levels.push_back(std::move(le));

        _epochLvlBase[i - 1] = ledger;
        _epochLvlHitsBase[i - 1] = hits;
    }
    rec.eouOps = eou_ops - _epochEouBase;
    rec.l1Pj = l1_pj - _epochL1Base;
    rec.dramPj = dram_pj - _epochDramBase;

    _epochEouBase = eou_ops;
    _epochL1Base = l1_pj;
    _epochDramBase = dram_pj;

    if (obs::traceEnabled())
        obs::emit(obs::EventKind::EpochRollover, rec.index, rec.accesses,
                  hits_delta_sum);
    if (_epochSink)
        _epochSink->records.push_back(rec);
}

void
System::run(const std::vector<AccessSource *> &sources,
            std::uint64_t accesses_per_core,
            std::uint64_t warmup_per_core)
{
    slip_assert(sources.size() == _cores.size(),
                "need one source per core");
    perf::ScopedPhase run_scope(perf::Phase::Run);
    // Bind trace emits (including those from NUCA controllers, which
    // have no System reference) to this run's pid and tick. The
    // pipelined merge stage runs on this thread, so the binding
    // covers every emit in both modes.
    obs::RunTraceScope trace_scope(_tracePid, &_accessTick);

    // The ledger-sums check below only holds when the cause bins were
    // live for every chargeEnergy in the measured window.
    [[maybe_unused]] const bool metrics_on = obs::metricsEnabled();

    const unsigned nthreads = std::max(1u, _cfg.runThreads);
    if (nthreads > 1) {
        const unsigned nworkers =
            std::min<unsigned>(static_cast<unsigned>(_cores.size()),
                               nthreads - 1);
        const bool full = fullFrontEligible();
        runWindowPipelined(sources, warmup_per_core, nworkers, full);
        if (warmup_per_core > 0)
            resetStats();
        runWindowPipelined(sources, accesses_per_core, nworkers, full);
    } else {
        runWindow(sources, warmup_per_core);
        if (warmup_per_core > 0)
            resetStats();
        runWindow(sources, accesses_per_core);
    }
    // Close the final partial epoch so the series accounts every pJ of
    // the measured window.
    if (_cfg.epochIntervalRefs != 0 && _epochAccesses > 0)
        rollEpoch();

    // Slice hot-spotting: publish each NUCA slice's access count so a
    // run report's metrics snapshot shows the interleave balance
    // ("llc.s0.accesses", "llc.s1.accesses", ...).
    if (obs::metricsEnabled()) {
        for (const Level &lvl : _levels) {
            if (!lvl.spec.shared || lvl.spec.slices <= 1)
                continue;
            for (const auto &unit : lvl.units)
                obs::gauge(unit->name() + ".accesses")
                    .set(static_cast<std::int64_t>(
                        unit->stats().demandAccesses +
                        unit->stats().metadataAccesses));
        }
    }

    // Energy attribution contract: with metrics on, every pJ entering
    // a golden energyPj accumulator was paired with a ledger cause-bin
    // add (CacheLevel::chargeEnergy), so per level the cause bins must
    // sum to the golden total. Skipped if metrics were off at either
    // end of the run — the bins would legitimately lag the totals.
    SLIP_CHECK_EXPENSIVE(
        if (metrics_on && obs::metricsEnabled()) {
            for (unsigned i = 0; i < numLevels(); ++i) {
                const CacheLevelStats s = combinedLevelStats(i);
                double golden = 0.0;
                for (unsigned k = 0; k < s.energyPj.size(); ++k)
                    golden += s.energyPj[k];
                const double attributed = obs::ledgerTotal(s.causePj);
                const double tol =
                    1e-9 * std::max(1.0, std::max(std::abs(golden),
                                                  std::abs(attributed)));
                SLIP_CHECK_MSG(std::abs(golden - attributed) <= tol,
                               "level %u ledger cause bins (%.6f pJ) do "
                               "not sum to the golden energy total "
                               "(%.6f pJ)", i, attributed, golden);
            }
        });
    // Full shadow-array / tag-store consistency sweep over every unit.
    SLIP_CHECK_EXPENSIVE(checkInvariants());
}

void
System::runWindow(const std::vector<AccessSource *> &sources,
                  std::uint64_t accesses_per_core)
{
    // Pull references in chunks — one virtual call per core per chunk
    // instead of per reference — then replay them in the same
    // index-major, core-minor order the per-reference loop used.
    // Generators only hold per-core state, so chunked generation
    // produces the identical per-core streams.
    constexpr std::size_t kChunk = 256;
    const unsigned ncores = static_cast<unsigned>(_cores.size());
    std::vector<std::vector<MemAccess>> buf(
        ncores, std::vector<MemAccess>(kChunk));
    std::vector<std::size_t> got(ncores, 0);
    pipe::FrontRef fr;

    std::uint64_t remaining = accesses_per_core;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, remaining));
        {
            perf::ScopedPhase gen_scope(perf::Phase::WorkloadGen);
            for (unsigned c = 0; c < ncores; ++c)
                got[c] = sources[c]->nextBatch(buf[c].data(), n);
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (unsigned c = 0; c < ncores; ++c) {
                if (i < got[c]) {
                    frontStep(c, buf[c][i], fr);
                    accessImpl(c, fr, 0);
                }
            }
        }
        remaining -= n;
    }
}

bool
System::fullFrontEligible() const
{
    // Running the private levels on the front-end threads is only
    // byte-identical to serial when nothing on a private level's path
    // can observe or mutate shared state out of order:
    //  - non-SLIP policies only: no page-table/metadata/sampling
    //    state on the private walk, no reuse-distance records, and no
    //    merge-side walks through the private levels (distribution
    //    fetches and writebacks; PTEs never go dirty);
    //  - no epoch accounting or sink (rollEpoch reads every level
    //    mid-run) and no tracing (private-level emits would fire on
    //    front threads, outside the run's trace binding);
    //  - private-prefix / shared-suffix layout with at least one
    //    level on each side of the boundary;
    //  - no shared level inclusive (its back-invalidations reach
    //    into other cores' private levels);
    //  - the per-reference shared-bound writeback fan-out must fit
    //    the descriptor: one chain per private fill of the PTE and
    //    demand walks plus the level-0 fill chain.
    if (_isSlip)
        return false;
    if (_cfg.epochIntervalRefs != 0 || _epochSink)
        return false;
    if (obs::traceEnabled())
        return false;
    const unsigned nlevels = static_cast<unsigned>(_levels.size());
    if (_firstShared < 1 || _firstShared >= nlevels)
        return false;
    for (unsigned i = _firstShared; i < nlevels; ++i)
        if (_levels[i].spec.inclusive)
            return false;
    // Coherence is subsumed by the inclusive check above (a coherent
    // level must resolve inclusive), but keep the direct test so the
    // TLB-front guarantee survives if that coupling ever loosens:
    // coherenceDemand's write-invalidations run on the merge stage and
    // would race the workers on other cores' private levels.
    if (_coherentLevel >= 0)
        return false;
    if (2 * _firstShared + 2 > pipe::kMaxFrontWb)
        return false;
    return true;
}

void
System::frontAccessFull(Walker &w, unsigned core_id, pipe::FrontRef &fr)
{
    // The worker's walker stops at _firstShared; what crosses it is
    // captured in fr for accessImpl to resume in serial order: PTE
    // walk, PTE writebacks, demand walk, demand writebacks.
    w.capture = &fr;
    Cycles lat = 0;
    if (fr.flags & pipe::kRefTlbMiss)
        lat += readWalk(w, core_id, 1, _pageTable.pteLine(fr.page),
                        _metaCtx, AccessClass::Demand,
                        pipe::kRefPteShared);
    fr.nPteWb = fr.nWb;
    lat += level0Step(w, core_id, fr, pageCtx(fr.page));
    fr.frontLat = lat;
}

Cycles
System::resumeWalk(unsigned core_id, unsigned lo, const pipe::FrontRef &fr,
                   Addr line, const PageCtx &ctx, std::uint16_t cross,
                   unsigned begin, unsigned end)
{
    Cycles lat = 0;
    if (fr.flags & cross)
        lat = readWalk(_walker, core_id, lo, line, ctx,
                       AccessClass::Demand, cross);
    for (unsigned k = begin; k < end; ++k)
        writebackToLevel(_walker, lo, core_id, fr.wb[k]);
    return lat;
}

void
System::runWindowPipelined(const std::vector<AccessSource *> &sources,
                           std::uint64_t accesses_per_core,
                           unsigned nworkers, bool full_front)
{
    if (accesses_per_core == 0)
        return;
    constexpr std::size_t kChunk = 256;
    const unsigned ncores = static_cast<unsigned>(_cores.size());

    // One SPSC ring per core. Capacity must cover at least one full
    // chunk: a worker produces its cores' chunks back to back while
    // the merge stage consumes index-major across all cores, so with
    // less slack the producer could fill one queue while the consumer
    // starves on another the same worker has not produced yet.
    std::vector<std::unique_ptr<pipe::SpscQueue>> queues;
    queues.reserve(ncores);
    for (unsigned c = 0; c < ncores; ++c)
        queues.push_back(
            std::make_unique<pipe::SpscQueue>(2 * kChunk));

    // Worker w owns cores {c : c % nworkers == w}: the front-end of
    // each core (source, TLB, private levels) has a single owner, so
    // per-core state needs no locking.
    std::vector<std::thread> workers;
    workers.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back([&, w] {
            perf::ScopedPhase front_scope(perf::Phase::FrontEnd);
            Walker walker(_levels.size(), _firstShared);
            std::vector<MemAccess> buf(kChunk);
            std::uint64_t remaining = accesses_per_core;
            while (remaining > 0) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kChunk, remaining));
                for (unsigned c = w; c < ncores; c += nworkers) {
                    std::size_t got;
                    {
                        perf::ScopedPhase gen_scope(
                            perf::Phase::WorkloadGen);
                        got = sources[c]->nextBatch(buf.data(), n);
                    }
                    for (std::size_t i = 0; i < n; ++i) {
                        pipe::FrontRef fr;
                        if (i < got) {
                            frontStep(c, buf[i], fr);
                            if (full_front)
                                frontAccessFull(walker, c, fr);
                        }
                        // Absent slots still cross the queue so the
                        // merge stays aligned with the serial chunk
                        // interleave when a source runs dry.
                        queues[c]->push(fr);
                    }
                }
                remaining -= n;
            }
        });
    }

    // Merge stage on the calling thread: pop index-major, core-minor
    // — the serial interleave — and finish each reference from where
    // its worker stopped.
    {
        perf::ScopedPhase shared_scope(perf::Phase::SharedStage);
        const unsigned lo = full_front ? _firstShared : 0;
        pipe::FrontRef fr;
        std::uint64_t remaining = accesses_per_core;
        while (remaining > 0) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kChunk, remaining));
            for (std::size_t i = 0; i < n; ++i) {
                for (unsigned c = 0; c < ncores; ++c) {
                    queues[c]->pop(fr);
                    if (fr.flags & pipe::kRefPresent)
                        accessImpl(c, fr, lo);
                }
            }
            remaining -= n;
        }
    }

    for (auto &t : workers)
        t.join();
}

CacheLevelStats
System::combinedLevelStats(unsigned i) const
{
    CacheLevelStats sum;
    for (const auto &unit : _levels[i].units) {
        const CacheLevelStats &s = unit->stats();
        sum.demandAccesses += s.demandAccesses;
        sum.demandHits += s.demandHits;
        sum.metadataAccesses += s.metadataAccesses;
        sum.metadataHits += s.metadataHits;
        for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
            sum.sublevelHits[sl] += s.sublevelHits[sl];
            sum.sublevelInsertions[sl] += s.sublevelInsertions[sl];
        }
        sum.insertions += s.insertions;
        sum.bypasses += s.bypasses;
        for (unsigned k = 0; k < sum.insertClass.size(); ++k)
            sum.insertClass[k] += s.insertClass[k];
        sum.movements += s.movements;
        sum.writebacks += s.writebacks;
        sum.invalidations += s.invalidations;
        for (unsigned k = 0; k < 4; ++k)
            sum.reuseHistogram[k] += s.reuseHistogram[k];
        for (unsigned k = 0; k < sum.energyPj.size(); ++k)
            sum.energyPj[k] += s.energyPj[k];
        obs::ledgerMerge(sum.causePj, s.causePj);
        sum.portBusyCycles += s.portBusyCycles;
    }
    return sum;
}

double
System::levelEnergyPj(unsigned i) const
{
    double e = 0.0;
    for (const auto &unit : _levels[i].units)
        e += unit->stats().totalEnergyPj();
    return e;
}

double
System::fullSystemEnergyPj() const
{
    double e = instructions() * _cfg.tech.corePjPerInstr;
    for (unsigned i = 0; i < numLevels(); ++i)
        e += levelEnergyPj(i);
    return e + _dram.energyPj();
}

double
System::instructions() const
{
    double accesses = 0.0;
    for (const auto &core : _cores)
        accesses += static_cast<double>(core->stats.accesses);
    return accesses * _cfg.instrPerAccess;
}

double
System::coreCycles(unsigned core_id) const
{
    const Core &core = *_cores[core_id];
    const double instr =
        static_cast<double>(core.stats.accesses) * _cfg.instrPerAccess;
    const double base = instr / _cfg.issueWidth;
    const double stalls = _cfg.stallFactor * core.stats.memStallCycles;
    double busy = 0.0;
    for (unsigned i = 1; i < numLevels(); ++i) {
        const Level &lvl = _levels[i];
        double pb;
        if (lvl.spec.shared) {
            // All slices serve all cores: contention is the whole
            // level's port occupancy spread across the cores.
            pb = 0.0;
            for (const auto &unit : lvl.units)
                pb += static_cast<double>(
                    unit->stats().portBusyCycles);
            pb /= _cfg.numCores;
        } else
            pb = static_cast<double>(
                lvl.units[core_id]->stats().portBusyCycles);
        busy += pb;
    }
    const double contention = _cfg.portContentionFactor * busy;
    return base + stalls + contention;
}

double
System::totalCycles() const
{
    double worst = 0.0;
    for (unsigned c = 0; c < _cores.size(); ++c)
        worst = std::max(worst, coreCycles(c));
    return worst;
}

std::uint64_t
System::eouOperations() const
{
    std::uint64_t ops = 0;
    for (const auto &eou : _eous)
        ops += eou->operations();
    return ops;
}

void
System::resetStats()
{
    for (auto &lvl : _levels)
        for (auto &unit : lvl.units)
            unit->resetStats();
    for (auto &core : _cores) {
        core->tlb.resetStats();
        core->stats = CoreStats{};
    }
    _dram.resetStats();
    for (auto &eou : _eous)
        eou->resetStats();

    // Coherence counters restart with the measurement window; the
    // directory itself is contents, not stats, and survives the reset
    // just like the tag arrays.
    _cohWriteProbes = 0;
    _cohInvalidations = 0;
    _cohDirtyWritebacks = 0;

    // Restart epoch accounting so the series covers exactly the
    // post-warm-up measurement window (warm-up epochs are discarded).
    _epochAccesses = 0;
    _epochIndex = 0;
    _epochLvlBase.assign(_levels.size() - 1, obs::EnergyLedger{});
    _epochLvlHitsBase.assign(_levels.size() - 1, 0);
    _epochL1Base = 0.0;
    _epochDramBase = 0.0;
    _epochEouBase = 0;
    if (_epochSink)
        _epochSink->records.clear();
}

void
System::checkInvariants() const
{
    for (const auto &lvl : _levels)
        for (const auto &unit : lvl.units)
            unit->checkInvariants();
}

} // namespace slip
