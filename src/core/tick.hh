/**
 * @file
 * Simulated time.
 */

#ifndef SBN_CORE_TICK_HH
#define SBN_CORE_TICK_HH

#include <cstdint>
#include <limits>

namespace sbn {

/**
 * Simulated time in kernel ticks. The paper's systems are synchronous
 * to the bus cycle t, so one tick is one bus cycle.
 */
using Tick = std::uint64_t;

/** A tick no event reaches: the due tick of an empty calendar. */
inline constexpr Tick kNever = std::numeric_limits<Tick>::max();

} // namespace sbn

#endif // SBN_CORE_TICK_HH
