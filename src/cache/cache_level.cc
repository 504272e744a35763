#include "cache/cache_level.hh"

#include <algorithm>
#include <bit>
#include <cctype>

#include "util/check.hh"
#include "util/logging.hh"

namespace slip {

namespace {

/** RRIP: 2 b RRPVs; one insertion in 32 is "distant" (BRRIP). */
constexpr std::uint8_t kRripMax = 3;
constexpr unsigned kRripBimodalOneIn = 32;

/** Metric prefix of a level: "L2.0" -> "l2", "L3" -> "l3". */
std::string
levelTag(const std::string &name)
{
    std::string tag;
    for (char c : name) {
        if (c == '.')
            break;
        tag += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return tag.empty() ? std::string("cache") : tag;
}

} // namespace

CacheLevel::CacheLevel(const CacheLevelConfig &cfg)
    : _cfg(cfg),
      _topo(cfg.topology, cfg.energy, cfg.ways, cfg.sublevelWays,
            cfg.waysPerRow),
      _replRng(cfg.seed),
      _mq(cfg.movementQueueEntries, cfg.movementQueuePj)
{
    slip_assert(cfg.sizeBytes % (std::uint64_t(cfg.ways) * kLineSize) ==
                    0,
                "size not divisible by ways*linesize");
    _sets = static_cast<unsigned>(cfg.sizeBytes /
                                  (std::uint64_t(cfg.ways) * kLineSize));
    slip_assert(isPowerOf2(_sets), "set count %u not a power of two",
                _sets);
    _setMask = _sets - 1;
    _lines.resize(std::size_t(_sets) * cfg.ways);
    _tags.assign(_lines.size(), kNoTag);
    _validMask.assign(_sets, 0);
    if (cfg.repl == ReplKind::Lru)
        _lruStamp.assign(_lines.size(), 0);
    else if (cfg.repl == ReplKind::Rrip)
        _rrpv.assign(_lines.size(), 0);

    // T wraps every 4C accesses; TL is the top timestampBits of T.
    _timeWrap = 4 * numLines();
    const unsigned time_bits = exactLog2(_timeWrap);
    slip_assert(time_bits >= cfg.timestampBits,
                "timestamp wider than wrapped counter");
    _tlShift = time_bits - cfg.timestampBits;

    // Sublevel way-mask and cumulative-capacity tables, so the
    // per-access queries are lookups instead of nested loops.
    std::uint32_t cum_mask = 0;
    unsigned way = 0;
    std::uint64_t cum_ways = 0;
    for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
        _slMaskCum[sl] = cum_mask;
        for (unsigned i = 0; i < _topo.sublevelWays(sl); ++i, ++way)
            cum_mask |= 1u << way;
        cum_ways += _topo.sublevelWays(sl);
        _slCumLines[sl] = cum_ways * _sets;
    }
    _slMaskCum[kNumSublevels] = cum_mask;

    // All cores' levels with the same tag share one process-wide
    // instrument, matching the perf-counter aggregation model.
    const std::string tag = levelTag(cfg.name);
    _ctrInsertions = &obs::counter(tag + ".insertions");
    _ctrMovements = &obs::counter(tag + ".movements");
    _ctrWritebacks = &obs::counter(tag + ".writebacks");
    _ctrInvalidations = &obs::counter(tag + ".invalidations");
}

LookupResult
CacheLevel::lookup(Addr line, AccessClass cls)
{
    _time = (_time + 1) & (_timeWrap - 1);

    if (cls == AccessClass::Demand)
        ++_stats.demandAccesses;
    else
        ++_stats.metadataAccesses;

    // Every access probes the movement queue (Section 4.3).
    if (_cfg.movementQueueEnabled)
        chargeEnergy(EnergyCat::Other, obs::EnergyCause::MqProbe,
                     _mq.lookup());

    LookupResult res = peek(line);
    if (res.hit) {
        if (cls == AccessClass::Demand)
            ++_stats.demandHits;
        else
            ++_stats.metadataHits;
    }
    return res;
}

void
CacheLevel::peekBatch(const Addr *lines, std::size_t n,
                      LookupResult *out) const
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = peek(lines[i]);
}

Cycles
CacheLevel::recordHit(unsigned set, unsigned way, bool is_write,
                      AccessClass cls, bool update_metadata)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "hit on invalid line");
    touchRepl(set, way);
    ln.hitCount += ln.hitCount < 3;
    if (is_write)
        ln.dirty = true;

    if (cls == AccessClass::Demand)
        ++_stats.sublevelHits[_topo.sublevelOf(way)];

    // Distribution-metadata line reads are charged to the Metadata
    // category so the access/movement split of Figure 11 stays clean.
    if (cls == AccessClass::Metadata)
        chargeEnergy(EnergyCat::Metadata, obs::EnergyCause::MetadataRead,
                     _topo.wayAccessEnergy(way));
    else
        chargeEnergy(EnergyCat::Access, obs::EnergyCause::DemandHit,
                     _topo.wayAccessEnergy(way));
    if (update_metadata && _cfg.slipMetadataEnabled) {
        // Read TL, write back the new timestamp (12 b metadata line).
        chargeMetadata();
        ln.tl = tlNow();
    }
    return _topo.wayLatency(way);
}

std::uint32_t
CacheLevel::sublevelMask(unsigned sl_begin, unsigned sl_end) const
{
    slip_assert(sl_begin < sl_end && sl_end <= kNumSublevels,
                "bad sublevel range [%u,%u)", sl_begin, sl_end);
    return _slMaskCum[sl_end] & ~_slMaskCum[sl_begin];
}

unsigned
CacheLevel::chooseVictim(unsigned set, std::uint32_t way_mask,
                         bool prefer_demoted)
{
    slip_assert(way_mask != 0, "empty way mask");
    // An invalid way in the mask wins outright under every policy,
    // lowest way first — the same answer each policy's own scan
    // would produce, found with one bit test on the shadow mask.
    const std::uint32_t inv = way_mask & ~_validMask[set];
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));

    if (prefer_demoted) {
        // LRU-PEA: demoted lines are evicted first; among them pick the
        // least recently used. A level without LRU stamps has no
        // recency order, and the tie goes to the highest-numbered way.
        const CacheLine *lines = &_lines[std::size_t(set) * _cfg.ways];
        std::uint32_t demoted = 0;
        for (std::uint32_t m = way_mask; m; m &= m - 1) {
            const unsigned w = static_cast<unsigned>(std::countr_zero(m));
            if (lines[w].demoted)
                demoted |= 1u << w;
        }
        if (demoted)
            return _cfg.repl == ReplKind::Lru
                       ? lruVictim(set, demoted)
                       : 31u - static_cast<unsigned>(
                                   std::countl_zero(demoted));
    }
    switch (_cfg.repl) {
      case ReplKind::Lru:
        return lruVictim(set, way_mask);
      case ReplKind::Rrip:
        return rripVictim(set, way_mask);
      case ReplKind::Random:
        return randomVictim(way_mask);
    }
    panic("unknown replacement kind");
}

void
CacheLevel::touchRepl(unsigned set, unsigned way)
{
    const std::size_t i = std::size_t(set) * _cfg.ways + way;
    if (_cfg.repl == ReplKind::Lru)
        _lruStamp[i] = ++_lruClock;
    else if (_cfg.repl == ReplKind::Rrip)
        _rrpv[i] = 0;
}

void
CacheLevel::insertRepl(unsigned set, unsigned way)
{
    const std::size_t i = std::size_t(set) * _cfg.ways + way;
    if (_cfg.repl == ReplKind::Lru) {
        _lruStamp[i] = ++_lruClock;
    } else if (_cfg.repl == ReplKind::Rrip) {
        // Mostly "long" re-reference interval; occasionally "distant"
        // for thrash resistance.
        _rrpv[i] = _replRng.oneIn(kRripBimodalOneIn)
                       ? kRripMax
                       : static_cast<std::uint8_t>(kRripMax - 1);
    }
}

unsigned
CacheLevel::lruVictim(unsigned set, std::uint32_t way_mask) const
{
    // Branch-free min over the masked stamps of a fully valid mask.
    // Masked-out ways read as the maximum stamp and never win. Stamps
    // of valid ways are unique (one per-level clock), so the minimum
    // has no ties to break.
    const std::uint64_t *stamps =
        &_lruStamp[std::size_t(set) * _cfg.ways];
    unsigned best = _cfg.ways;
    std::uint64_t best_stamp = ~0ull;
    for (unsigned w = 0; w < _cfg.ways; ++w) {
        const std::uint64_t out_of_mask =
            std::uint64_t((way_mask >> w) & 1) - 1;
        const std::uint64_t s = stamps[w] | out_of_mask;
        const bool take = s < best_stamp;
        best_stamp = take ? s : best_stamp;
        best = take ? w : best;
    }
    slip_assert(best < _cfg.ways, "no victim in mask 0x%x", way_mask);
    return best;
}

unsigned
CacheLevel::rripVictim(unsigned set, std::uint32_t way_mask)
{
    std::uint8_t *rrpv = &_rrpv[std::size_t(set) * _cfg.ways];
    // Search for a distant (rrpv == max) line; age the candidates and
    // retry until one appears. Aging is confined to the mask so each
    // sublevel keeps independent RRIP metadata (Section 7).
    for (;;) {
        for (std::uint32_t m = way_mask; m; m &= m - 1) {
            const unsigned w = static_cast<unsigned>(std::countr_zero(m));
            if (rrpv[w] >= kRripMax)
                return w;
        }
        for (std::uint32_t m = way_mask; m; m &= m - 1)
            ++rrpv[std::countr_zero(m)];
    }
}

unsigned
CacheLevel::randomVictim(std::uint32_t way_mask)
{
    // The pick-th set bit of the mask, pick uniform in [0, count).
    std::uint32_t m = way_mask;
    for (auto pick = _replRng.below(popCount(way_mask)); pick > 0; --pick)
        m &= m - 1;
    return static_cast<unsigned>(std::countr_zero(m));
}

void
CacheLevel::installLine(unsigned set, unsigned way, Addr line_addr,
                        bool dirty, PolicyPair policies, InsertClass cls)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(!ln.valid, "installing over a valid line");
    slip_assert(setIndex(line_addr) == set, "line/set mismatch");

    slip_assert(line_addr != ~Addr{0}, "line address is the shadow "
                "sentinel");
    ln.tag = line_addr;
    ln.valid = true;
    ln.dirty = dirty;
    ln.policies = policies;
    ln.tl = tlNow();
    ln.hitCount = 0;
    ln.demoted = false;
    insertRepl(set, way);
    syncShadow(set, way);

    ++_stats.insertions;
    ++_stats.insertClass[static_cast<unsigned>(cls)];
    ++_stats.sublevelInsertions[_topo.sublevelOf(way)];
    _ctrInsertions->add();

    // The fill write plus the 12 b metadata copy travelling with it.
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Fill,
                 _topo.wayAccessEnergy(way));
    if (_cfg.slipMetadataEnabled)
        chargeMetadata();
}

Cycles
CacheLevel::moveLine(unsigned set, unsigned from, unsigned to)
{
    CacheLine &src = lineAt(set, from);
    CacheLine &dst = lineAt(set, to);
    slip_assert(src.valid, "moving an invalid line");
    slip_assert(!dst.valid, "moving onto a valid line");

    dst = src;
    src.invalidate();
    insertRepl(set, to);
    syncShadow(set, from);
    syncShadow(set, to);

    ++_stats.movements;
    _ctrMovements->add();
    const double pj = _topo.wayAccessEnergy(from) +
                      _topo.wayAccessEnergy(to);
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Move, pj);
    if (_cfg.slipMetadataEnabled)
        chargeMetadata();  // the 12 b metadata moves with the line

    // The port is blocked for the read and the write of the movement.
    const Cycles busy = _topo.wayLatency(from) + _topo.wayLatency(to);
    _stats.portBusyCycles += busy;
    return _mq.push(busy);
}

Cycles
CacheLevel::recordWriteback(unsigned set, unsigned way)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "writeback into invalid line");
    touchRepl(set, way);
    ln.dirty = true;
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Writeback,
                 _topo.wayAccessEnergy(way));
    return _topo.wayLatency(way);
}

Cycles
CacheLevel::swapLines(unsigned set, unsigned a, unsigned b)
{
    slip_assert(a != b, "swapping a way with itself");
    CacheLine &la = lineAt(set, a);
    CacheLine &lb = lineAt(set, b);
    slip_assert(la.valid && lb.valid, "swapping invalid lines");

    std::swap(la, lb);
    insertRepl(set, a);
    insertRepl(set, b);
    syncShadow(set, a);
    syncShadow(set, b);

    _stats.movements += 2;
    _ctrMovements->add(2);
    const double pj = 2.0 * (_topo.wayAccessEnergy(a) +
                             _topo.wayAccessEnergy(b));
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Move, pj);
    if (_cfg.slipMetadataEnabled) {
        chargeMetadata();
        chargeMetadata();
    }

    const Cycles busy =
        2 * (_topo.wayLatency(a) + _topo.wayLatency(b));
    _stats.portBusyCycles += busy;
    Cycles stall = _mq.push(busy / 2);
    stall += _mq.push(busy / 2);
    return stall;
}

Eviction
CacheLevel::evictLine(unsigned set, unsigned way)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "evicting an invalid line");

    Eviction ev;
    ev.lineAddr = ln.tag;
    ev.dirty = ln.dirty;
    ev.policies = ln.policies;

    ++_stats.reuseHistogram[ln.hitCount];
    if (ln.dirty) {
        ++_stats.writebacks;
        _ctrWritebacks->add();
        // Reading the dirty line out for the writeback.
        chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Writeback,
                     _topo.wayAccessEnergy(way));
    }
    ln.invalidate();
    syncShadow(set, way);
    SLIP_CHECK(!peek(ev.lineAddr).hit);
    return ev;
}

bool
CacheLevel::invalidate(Addr line, bool *was_dirty)
{
    // Invalidations must also probe the movement queue (Section 4.3).
    if (_cfg.movementQueueEnabled)
        chargeEnergy(EnergyCat::Other, obs::EnergyCause::MqProbe,
                     _mq.lookup());
    LookupResult res = peek(line);
    if (!res.hit)
        return false;
    CacheLine &ln = lineAt(res.setIndex, res.way);
    if (was_dirty)
        *was_dirty = ln.dirty;
    ++_stats.reuseHistogram[ln.hitCount];
    ln.invalidate();
    syncShadow(res.setIndex, res.way);
    SLIP_CHECK(!peek(line).hit);
    ++_stats.invalidations;
    _ctrInvalidations->add();
    return true;
}

std::uint64_t
CacheLevel::reuseDistance(std::uint8_t tl) const
{
    const std::uint64_t stamped = std::uint64_t(tl) << _tlShift;
    return (_time + _timeWrap - stamped) % _timeWrap;
}

std::uint64_t
CacheLevel::sublevelCumLines(unsigned sl) const
{
    slip_assert(sl < kNumSublevels, "sublevel %u out of range", sl);
    return _slCumLines[sl];
}

unsigned
CacheLevel::rdBin(std::uint64_t rd) const
{
    for (unsigned sl = 0; sl < kNumSublevels; ++sl)
        if (rd < _slCumLines[sl])
            return sl;
    return kNumSublevels;
}

void
CacheLevel::resetStats()
{
    _stats = CacheLevelStats{};
    _mq.resetStats();
}

void
CacheLevel::checkInvariants() const
{
    for (unsigned s = 0; s < _sets; ++s) {
        for (unsigned w = 0; w < _cfg.ways; ++w) {
            const CacheLine &ln = lineAt(s, w);
            slip_assert(((_validMask[s] >> w) & 1) == (ln.valid ? 1u : 0u),
                        "valid shadow out of sync at (%u, %u)", s, w);
            slip_assert(_tags[std::size_t(s) * _cfg.ways + w] ==
                            (ln.valid ? ln.tag : kNoTag),
                        "tag shadow out of sync at (%u, %u)", s, w);
            if (!ln.valid)
                continue;
            slip_assert(setIndex(ln.tag) == s,
                        "line 0x%llx stored in wrong set %u",
                        static_cast<unsigned long long>(ln.tag), s);
            // LRU victim selection relies on unique stamps among the
            // valid ways of a set, each from the level clock.
            const std::size_t i = std::size_t(s) * _cfg.ways + w;
            if (_cfg.repl == ReplKind::Lru)
                slip_assert(_lruStamp[i] >= 1 &&
                                _lruStamp[i] <= _lruClock,
                            "LRU stamp out of range at (%u, %u)", s, w);
            // No duplicate tags (or LRU stamps) within a set.
            for (unsigned w2 = w + 1; w2 < _cfg.ways; ++w2) {
                const CacheLine &other = lineAt(s, w2);
                if (!other.valid)
                    continue;
                slip_assert(other.tag != ln.tag,
                            "duplicate line 0x%llx in set %u",
                            static_cast<unsigned long long>(ln.tag), s);
                slip_assert(_cfg.repl != ReplKind::Lru ||
                                _lruStamp[i] != _lruStamp[i + w2 - w],
                            "duplicate LRU stamp in set %u", s);
            }
        }
    }
}

} // namespace slip
