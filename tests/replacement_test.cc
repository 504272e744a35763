/**
 * @file
 * Differential test of CacheLevel's replacement state.
 *
 * CacheLevel keeps LRU stamps and RRIP RRPVs in packed per-level
 * arrays and selects victims from them. The reference model here keeps
 * the same state per line, as plain fields, and picks victims with the
 * straightforward per-line scans: invalid ways first, LRU as the
 * minimum stamp with "<=" (highest way on ties), RRIP as "first distant
 * line, else age the candidates and retry", random as the pick-th
 * candidate, and LRU-PEA's demoted-first scan over the same stamps.
 *
 * Seeded random op sequences (install, hit, writeback, move, swap,
 * evict, invalidate, demoted-flag updates) run through CacheLevel's
 * public API and the model side by side on 8-, 16- and 32-way levels
 * under every replacement kind. After every op, a masked chooseVictim
 * (with and without prefer_demoted) must name the model's victim, and
 * the lines' tag/valid/demoted state must agree.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache_level.hh"
#include "energy/energy_params.hh"
#include "util/random.hh"

namespace slip {
namespace {

constexpr unsigned kSets = 4;

/** Per-line reference state of one level. */
class ReferenceRepl
{
  public:
    ReferenceRepl(ReplKind kind, unsigned ways, std::uint64_t seed)
        : _kind(kind), _ways(ways), _lines(kSets * ways), _rng(seed)
    {}

    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        bool demoted = false;
        std::uint64_t stamp = 0;
        std::uint8_t rrpv = 0;
    };

    Line &at(unsigned set, unsigned way) { return _lines[set * _ways + way]; }

    void
    onHit(unsigned set, unsigned way)
    {
        Line &ln = at(set, way);
        if (_kind == ReplKind::Lru)
            ln.stamp = ++_clock;
        else if (_kind == ReplKind::Rrip)
            ln.rrpv = 0;
    }

    void
    onInsert(unsigned set, unsigned way)
    {
        Line &ln = at(set, way);
        if (_kind == ReplKind::Lru)
            ln.stamp = ++_clock;
        else if (_kind == ReplKind::Rrip)
            ln.rrpv = _rng.oneIn(32) ? 3 : 2;
    }

    void
    install(unsigned set, unsigned way, Addr tag)
    {
        Line &ln = at(set, way);
        ln = Line{};
        ln.valid = true;
        ln.tag = tag;
        onInsert(set, way);
    }

    void
    move(unsigned set, unsigned from, unsigned to)
    {
        at(set, to) = at(set, from);
        at(set, from) = Line{};
        onInsert(set, to);
    }

    void
    swap(unsigned set, unsigned a, unsigned b)
    {
        std::swap(at(set, a), at(set, b));
        onInsert(set, a);
        onInsert(set, b);
    }

    void remove(unsigned set, unsigned way) { at(set, way) = Line{}; }

    unsigned
    victim(unsigned set, std::uint32_t mask, bool prefer_demoted)
    {
        Line *lines = &at(set, 0);
        for (unsigned w = 0; w < _ways; ++w)
            if ((mask >> w) & 1 && !lines[w].valid)
                return w;
        if (prefer_demoted) {
            unsigned best = _ways;
            std::uint64_t best_stamp = ~0ull;
            for (unsigned w = 0; w < _ways; ++w) {
                if ((mask >> w) & 1 && lines[w].demoted &&
                    lines[w].stamp <= best_stamp) {
                    best_stamp = lines[w].stamp;
                    best = w;
                }
            }
            if (best < _ways)
                return best;
        }
        switch (_kind) {
          case ReplKind::Lru: {
            unsigned best = _ways;
            std::uint64_t best_stamp = ~0ull;
            for (unsigned w = 0; w < _ways; ++w) {
                if ((mask >> w) & 1 && lines[w].stamp <= best_stamp) {
                    best_stamp = lines[w].stamp;
                    best = w;
                }
            }
            return best;
          }
          case ReplKind::Rrip:
            for (;;) {
                for (unsigned w = 0; w < _ways; ++w)
                    if ((mask >> w) & 1 && lines[w].rrpv >= 3)
                        return w;
                for (unsigned w = 0; w < _ways; ++w)
                    if ((mask >> w) & 1)
                        ++lines[w].rrpv;
            }
          case ReplKind::Random: {
            unsigned count = 0;
            for (unsigned w = 0; w < _ways; ++w)
                count += (mask >> w) & 1;
            auto pick = _rng.below(count);
            for (unsigned w = 0; w < _ways; ++w) {
                if (!((mask >> w) & 1))
                    continue;
                if (pick == 0)
                    return w;
                --pick;
            }
            break;
          }
        }
        ADD_FAILURE() << "reference model found no victim";
        return 0;
    }

  private:
    ReplKind _kind;
    unsigned _ways;
    std::vector<Line> _lines;
    Random _rng;
    std::uint64_t _clock = 0;
};

CacheLevelConfig
levelConfig(unsigned ways, ReplKind kind, std::uint64_t seed)
{
    CacheLevelConfig cfg;
    cfg.name = "L2";
    cfg.ways = ways;
    cfg.sizeBytes = std::uint64_t(kSets) * ways * kLineSize;
    cfg.energy = tech45nm().l2;
    cfg.sublevelWays = {ways / 4, ways / 4, ways / 2};
    cfg.waysPerRow = ways / 4;
    cfg.repl = kind;
    cfg.seed = seed;
    return cfg;
}

class ReplacementDiffTest
    : public ::testing::TestWithParam<
          std::tuple<ReplKind, unsigned, std::uint64_t>>
{};

TEST_P(ReplacementDiffTest, VictimsMatchReferenceModel)
{
    const auto [kind, ways, seed] = GetParam();
    const std::uint64_t level_seed = seed * 7919 + 1;
    CacheLevel level(levelConfig(ways, kind, level_seed));
    ReferenceRepl ref(kind, ways, level_seed);
    Random rng(seed);
    const std::uint32_t all = ways == 32 ? ~0u : (1u << ways) - 1;
    std::uint64_t next_tag = 1;

    // Ways of @p set in the given validity, as a mask.
    const auto waysWhere = [&](unsigned set, bool valid) {
        std::uint32_t m = 0;
        for (unsigned w = 0; w < ways; ++w)
            if (ref.at(set, w).valid == valid)
                m |= 1u << w;
        return m;
    };
    // A uniformly chosen set bit of a nonzero mask.
    const auto pickWay = [&](std::uint32_t m) {
        for (auto k = rng.below(std::popcount(m)); k > 0; --k)
            m &= m - 1;
        return static_cast<unsigned>(std::countr_zero(m));
    };
    // A random nonzero candidate mask: all ways, one sublevel, or
    // an arbitrary subset.
    const auto pickMask = [&]() -> std::uint32_t {
        switch (rng.below(3)) {
          case 0:
            return all;
          case 1: {
            const unsigned sl =
                static_cast<unsigned>(rng.below(kNumSublevels));
            return level.sublevelMask(sl, sl + 1);
          }
          default: {
            const std::uint32_t m =
                static_cast<std::uint32_t>(rng.next()) & all;
            return m ? m : 1u;
          }
        }
    };

    // Queries that reach the policy (no invalid candidate), and the
    // demoted-first ones among them that have a demoted candidate.
    int policy_queries = 0, demoted_queries = 0;
    const int steps = 20000;
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const unsigned set = static_cast<unsigned>(rng.below(kSets));
        const std::uint32_t valid = waysWhere(set, true);
        const std::uint32_t invalid = all & ~valid;
        // Installs outnumber removals, so sets run near full and many
        // victim queries reach the replacement policy (counted below).
        const unsigned op = static_cast<unsigned>(rng.below(10));

        if (op <= 1 || !valid) {
            // Install through a victim choice, evicting if needed.
            const std::uint32_t mask = pickMask();
            const bool prefer = rng.oneIn(3);
            const unsigned way = level.chooseVictim(set, mask, prefer);
            ASSERT_EQ(way, ref.victim(set, mask, prefer));
            if (level.isValid(set, way)) {
                level.evictLine(set, way);
                ref.remove(set, way);
            }
            const Addr tag = next_tag++ * kSets + set;
            level.installLine(set, way, tag, false, PolicyPair{},
                              InsertClass::Default);
            ref.install(set, way, tag);
        } else if (op == 2 && invalid) {
            // Install straight into a free way.
            const unsigned way = pickWay(invalid);
            const Addr tag = next_tag++ * kSets + set;
            level.installLine(set, way, tag, false, PolicyPair{},
                              InsertClass::Default);
            ref.install(set, way, tag);
        } else if (op == 3) {
            const unsigned way = pickWay(valid);
            level.recordHit(set, way, rng.oneIn(2), AccessClass::Demand,
                            rng.oneIn(2));
            ref.onHit(set, way);
        } else if (op == 4) {
            const unsigned way = pickWay(valid);
            level.recordWriteback(set, way);
            ref.onHit(set, way);
        } else if (op == 5 && invalid) {
            const unsigned from = pickWay(valid);
            const unsigned to = pickWay(invalid);
            level.moveLine(set, from, to);
            ref.move(set, from, to);
        } else if (op == 6 && std::popcount(valid) >= 2) {
            const unsigned a = pickWay(valid);
            const unsigned b = pickWay(valid & ~(1u << a));
            level.swapLines(set, a, b);
            ref.swap(set, a, b);
        } else if (op == 7) {
            const unsigned way = pickWay(valid);
            level.evictLine(set, way);
            ref.remove(set, way);
        } else if (op == 8) {
            const unsigned way = pickWay(valid);
            ASSERT_TRUE(level.invalidate(ref.at(set, way).tag));
            ref.remove(set, way);
        } else if (op == 9) {
            const unsigned way = pickWay(valid);
            const bool flag = rng.oneIn(2);
            level.lineAt(set, way).demoted = flag;
            ref.at(set, way).demoted = flag;
        }
        level.drainMovements();

        // The step's victim query, on a random set and mask.
        const unsigned qset = static_cast<unsigned>(rng.below(kSets));
        const std::uint32_t qmask = pickMask();
        const bool prefer = rng.oneIn(2);
        if ((qmask & ~waysWhere(qset, true)) == 0) {
            ++policy_queries;
            for (unsigned w = 0; w < ways; ++w)
                if (prefer && (qmask >> w) & 1 && ref.at(qset, w).demoted) {
                    ++demoted_queries;
                    break;
                }
        }
        ASSERT_EQ(level.chooseVictim(qset, qmask, prefer),
                  ref.victim(qset, qmask, prefer))
            << "mask 0x" << std::hex << qmask << std::dec
            << " prefer_demoted " << prefer;

        for (unsigned w = 0; w < ways; ++w) {
            const CacheLine &got = level.lineAt(set, w);
            const ReferenceRepl::Line &want = ref.at(set, w);
            ASSERT_EQ(got.valid, want.valid) << "way " << w;
            if (want.valid) {
                ASSERT_EQ(got.tag, want.tag) << "way " << w;
                ASSERT_EQ(got.demoted, want.demoted) << "way " << w;
            }
        }
    }
    level.checkInvariants();
    EXPECT_GT(policy_queries, steps / 4);
    EXPECT_GT(demoted_queries, steps / 20);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndWays, ReplacementDiffTest,
    ::testing::Combine(::testing::Values(ReplKind::Lru, ReplKind::Rrip,
                                         ReplKind::Random),
                       ::testing::Values(8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &info) {
        return std::string(replCliName(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param)) + "way_seed" +
               std::to_string(std::get<2>(info.param));
    });

} // namespace
} // namespace slip
