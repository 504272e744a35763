/**
 * @file
 * Debug contract layer: invariant checks that compile away in Release.
 *
 * SLIP_CHECK(cond) and SLIP_CHECK_MSG(cond, fmt, ...) state internal
 * invariants — inclusivity after a back-invalidation sweep, SPSC queue
 * occupancy bounds, ledger-sums-to-golden-totals, hierarchy-spec
 * validity — that are too expensive or too numerous for the always-on
 * slip_assert (util/logging.hh), which remains the right tool for
 * cheap checks guarding undefined behavior.
 *
 * Enablement is a build-wide switch: configure with
 * `-DSLIP_CHECK_INVARIANTS=ON` (CMake option; defines
 * SLIP_CHECK_INVARIANTS for every target) and the macros expand to a
 * panic-on-failure check. In a normal build they expand to a dead
 * `false && (cond)` test, so the condition must still compile — a
 * checked expression can never bit-rot — but no code is generated and
 * the condition is never evaluated.
 *
 * SLIP_CHECK_EXPENSIVE(stmt) guards whole check *statements* (loops,
 * helper calls such as CacheLevel::checkInvariants) that should not
 * even be instantiated in Release; unlike SLIP_CHECK its argument
 * vanishes entirely when the layer is off.
 *
 * CI runs the golden fixtures under a checked build (see
 * .github/workflows/ci.yml and DESIGN.md §6), so every invariant here
 * is exercised against the byte-exact reference outputs on each push.
 */

#ifndef SLIP_UTIL_CHECK_HH
#define SLIP_UTIL_CHECK_HH

#include "util/logging.hh"

namespace slip {

/** True in builds with the contract layer enabled. */
#ifdef SLIP_CHECK_INVARIANTS
inline constexpr bool kCheckInvariants = true;
#else
inline constexpr bool kCheckInvariants = false;
#endif

} // namespace slip

#ifdef SLIP_CHECK_INVARIANTS

/** Check an invariant; panics (aborts) with location on failure. */
#define SLIP_CHECK(cond)                                                  \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::slip::panicAssert(#cond, __FILE__, __LINE__,                \
                                "invariant violated");                    \
        }                                                                 \
    } while (0)

/** Check an invariant with a printf-style diagnostic. */
#define SLIP_CHECK_MSG(cond, ...)                                         \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::slip::panicAssert(#cond, __FILE__, __LINE__,                \
                                __VA_ARGS__);                             \
        }                                                                 \
    } while (0)

/** Run a whole check statement (loop / helper call) only when checked.
 * Variadic so statements containing top-level commas pass through. */
#define SLIP_CHECK_EXPENSIVE(...)                                         \
    do {                                                                  \
        __VA_ARGS__;                                                      \
    } while (0)

#else // !SLIP_CHECK_INVARIANTS

// The condition must still compile (false && ... short-circuits, so it
// is never evaluated and the optimizer drops the whole statement).
#define SLIP_CHECK(cond)                                                  \
    do {                                                                  \
        if (false && (cond)) {                                            \
        }                                                                 \
    } while (0)

#define SLIP_CHECK_MSG(cond, ...)                                         \
    do {                                                                  \
        if (false && (cond)) {                                            \
        }                                                                 \
    } while (0)

#define SLIP_CHECK_EXPENSIVE(...)                                         \
    do {                                                                  \
    } while (0)

#endif // SLIP_CHECK_INVARIANTS

#endif // SLIP_UTIL_CHECK_HH
