/**
 * @file
 * Intra-run pipeline plumbing (DESIGN.md §Intra-run parallelism).
 *
 * A pipelined System::run (--run-threads > 1) shards one simulation
 * into per-core front-end stages — workload generation, the TLB, and
 * (when the configuration allows) the private cache levels — feeding
 * the shared-level merge stage through one bounded single-producer /
 * single-consumer ring per core. The merge stage pops exactly one
 * descriptor per core per reference index, reproducing the serial
 * index-major, core-minor interleave, so results are byte-identical
 * for any thread count.
 *
 * FrontRef is the descriptor of one reference between System's front
 * step and its accessImpl: what the front end already simulated (TLB
 * outcome; in full-front mode also the private-level latency and the
 * ordered dirty lines bound for the first shared level) for the merge
 * stage to finish (page-table updates, shared walks, DRAM,
 * statistics). A serial run hands it over directly; a pipelined run
 * passes it through the queue.
 */

#ifndef SLIP_SIM_PIPELINE_HH
#define SLIP_SIM_PIPELINE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mem/types.hh"
#include "perf/perf_counters.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace slip {
namespace pipe {

/** FrontRef::flags bits. */
enum : std::uint16_t {
    /** The slot carries a reference (clear = its source ran dry at
     * this index; the merge stage must still consume the slot to stay
     * aligned with the serial chunk interleave). */
    kRefPresent = 1u << 0,
    kRefWrite = 1u << 1,
    /** The front-end TLB missed (merge runs the shared miss work). */
    kRefTlbMiss = 1u << 2,
    /** The TLB insert displaced evictedPage. */
    kRefTlbEvict = 1u << 3,
    /** Level 0 hit (set by whichever executor ran the level-0 step). */
    kRefL1Hit = 1u << 4,
    // Full-front (private-levels-in-front) mode only: the worker's walk
    // missed every private level, so the merge stage resumes it at the
    // first shared level.
    kRefDemandShared = 1u << 5,  ///< the demand walk
    kRefPteShared = 1u << 6,     ///< the PTE walk
};

/**
 * Upper bound on shared-bound writebacks one reference can produce in
 * full-front mode: one per private demand/PTE fill (each evicts at
 * most one line whose forwarding chain reaches the shared boundary at
 * most once) plus the L1 fill chain — 2 * private_depth + 2. run()
 * falls back to TLB-front mode for private prefixes deeper than this
 * bound allows.
 */
constexpr unsigned kMaxFrontWb = 8;

/** One reference crossing a front-end → merge queue. */
struct FrontRef
{
    Addr page = 0;
    Addr line = 0;
    Addr evictedPage = 0;  ///< valid when kRefTlbEvict
    /** Latency accrued in the front-end (TLB-walk private portion +
     * private demand walk); excludes the L1 base latency, which the
     * merge stage accounts like the serial path. */
    Cycles frontLat = 0;
    /** Dirty lines a full-front worker's walker captured at the first
     * shared level, in the exact order the serial recursion would
     * deliver them: [0, nPteWb) from the PTE-walk fills, [nPteWb, nWb)
     * from the demand fills. */
    std::array<Addr, kMaxFrontWb> wb{};
    std::uint8_t nPteWb = 0;
    std::uint8_t nWb = 0;
    std::uint16_t flags = 0;
};

/**
 * Bounded SPSC ring of FrontRefs. Lock-free in the steady state: the
 * producer owns the tail, the consumer owns the head, and each caches
 * the other's last-seen position so the hot path touches one shared
 * cache line only when its cached view runs out. Blocking push/pop
 * spin briefly and then yield; stall time is attributed to the
 * QueueFull/QueueEmpty perf phases.
 */
class SpscQueue
{
  public:
    explicit SpscQueue(std::size_t capacity = 1024)
        : _ring(roundUpPow2(capacity)), _mask(_ring.size() - 1)
    {
        SLIP_CHECK_MSG((_ring.size() & (_ring.size() - 1)) == 0,
                       "SPSC ring size not a power of two");
        SLIP_CHECK(_ring.size() >= capacity);
    }

    void
    push(const FrontRef &r)
    {
        const std::uint64_t tail =
            _tail.load(std::memory_order_relaxed);
        if (tail - _headCache >= _ring.size()) {
            _headCache = _head.load(std::memory_order_acquire);
            if (tail - _headCache >= _ring.size())
                waitNotFull(tail);
        }
        // Single-producer discipline: after the not-full wait the
        // producer-visible occupancy must leave room for this slot, and
        // the consumer can never have advanced past the producer.
        SLIP_CHECK_MSG(tail - _headCache < _ring.size(),
                       "SPSC push into a full ring (occupancy %llu)",
                       static_cast<unsigned long long>(tail - _headCache));
        _ring[tail & _mask] = r;
        _tail.store(tail + 1, std::memory_order_release);
    }

    void
    pop(FrontRef &out)
    {
        const std::uint64_t head =
            _head.load(std::memory_order_relaxed);
        if (head == _tailCache) {
            _tailCache = _tail.load(std::memory_order_acquire);
            if (head == _tailCache)
                waitNotEmpty(head);
        }
        // Single-consumer discipline: the slot being read must lie in
        // [head, tail) and the producer can be at most a full ring ahead.
        SLIP_CHECK_MSG(_tailCache - head >= 1 &&
                           _tailCache - head <= _ring.size(),
                       "SPSC pop ordering violated (backlog %llu)",
                       static_cast<unsigned long long>(_tailCache - head));
        out = _ring[head & _mask];
        _head.store(head + 1, std::memory_order_release);
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    void
    waitNotFull(std::uint64_t tail)
    {
        perf::ScopedPhase stall_scope(perf::Phase::QueueFull);
        unsigned spins = 0;
        do {
            if (++spins > kSpinLimit)
                std::this_thread::yield();
            _headCache = _head.load(std::memory_order_acquire);
        } while (tail - _headCache >= _ring.size());
    }

    void
    waitNotEmpty(std::uint64_t head)
    {
        perf::ScopedPhase stall_scope(perf::Phase::QueueEmpty);
        unsigned spins = 0;
        do {
            if (++spins > kSpinLimit)
                std::this_thread::yield();
            _tailCache = _tail.load(std::memory_order_acquire);
        } while (head == _tailCache);
    }

    static constexpr unsigned kSpinLimit = 1024;

    std::vector<FrontRef> _ring;
    std::size_t _mask;
    /** Consumer position; written by pop, cached by the producer. */
    alignas(64) std::atomic<std::uint64_t> _head{0};
    alignas(64) std::uint64_t _tailCache = 0;  ///< consumer-owned
    /** Producer position; written by push, cached by the consumer. */
    alignas(64) std::atomic<std::uint64_t> _tail{0};
    alignas(64) std::uint64_t _headCache = 0;  ///< producer-owned
};

} // namespace pipe
} // namespace slip

#endif // SLIP_SIM_PIPELINE_HH
