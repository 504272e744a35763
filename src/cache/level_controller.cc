#include "cache/level_controller.hh"

namespace slip {

AccessResult
LevelController::access(Addr line, bool is_write, const PageCtx &page,
                        AccessClass cls)
{
    const LookupResult lr = _level.lookup(line, cls);
    AccessResult res;
    if (!lr.hit)
        return res;

    res.hit = true;
    // Measure the reuse distance before the hit refreshes TL
    // (Section 4.1); only sampled demand accesses contribute.
    if (page.collectRd && cls == AccessClass::Demand) {
        const std::uint64_t rd =
            _level.reuseDistance(_level.lineAt(lr.setIndex, lr.way).tl);
        res.rdBin = static_cast<int>(_level.rdBin(rd));
    }
    res.latency = _level.recordHit(lr.setIndex, lr.way, is_write, cls,
                                   page.collectRd);
    return res;
}

bool
BaselineController::fill(Addr line, bool dirty, const PageCtx &page,
                         std::vector<Eviction> &out)
{
    (void)page;
    const unsigned set = _level.setIndex(line);
    const unsigned way = _level.chooseVictim(set, _level.allWaysMask());
    if (_level.isValid(set, way))
        out.push_back(_level.evictLine(set, way));
    _level.installLine(set, way, line, dirty, PolicyPair{},
                       InsertClass::Default);
    return true;
}

} // namespace slip
