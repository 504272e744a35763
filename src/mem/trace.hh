/**
 * @file
 * Access-trace plumbing: the one pull interface that workload
 * generators and trace replays implement and the hierarchy simulator
 * consumes, plus an in-memory trace buffer useful for tests and
 * offline analysis.
 */

#ifndef SLIP_MEM_TRACE_HH
#define SLIP_MEM_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mem/types.hh"

namespace slip {

/**
 * A pull-based source of memory accesses. Workload generators and
 * trace replays implement nextBatch; the system simulator pulls one
 * chunk per core at a time through it.
 */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /**
     * Produce up to @p max accesses into @p out, one virtual call per
     * chunk instead of per reference. A short return means the source
     * is exhausted.
     */
    virtual std::size_t nextBatch(MemAccess *out, std::size_t max) = 0;

    /**
     * Produce the next access.
     * @param out receives the access when available
     * @return false when the source is exhausted
     */
    bool next(MemAccess &out) { return nextBatch(&out, 1) == 1; }
};

/** A fixed in-memory trace, replayed once. */
class TraceBuffer : public AccessSource
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(std::vector<MemAccess> accesses)
        : _accesses(std::move(accesses))
    {}

    void append(MemAccess a) { _accesses.push_back(a); }
    void append(Addr addr, AccessType type) { append({addr, type}); }

    std::size_t size() const { return _accesses.size(); }
    const MemAccess &at(std::size_t i) const { return _accesses.at(i); }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, _accesses.size() - _pos);
        std::copy_n(_accesses.begin() + _pos, n, out);
        _pos += n;
        return n;
    }

  private:
    std::vector<MemAccess> _accesses;
    std::size_t _pos = 0;
};

} // namespace slip

#endif // SLIP_MEM_TRACE_HH
