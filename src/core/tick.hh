/**
 * @file
 * Simulated time.
 */

#ifndef SBN_CORE_TICK_HH
#define SBN_CORE_TICK_HH

#include <cstdint>

namespace sbn {

/**
 * Simulated time in kernel ticks. The paper's systems are synchronous
 * to the bus cycle t, so one tick is one bus cycle.
 */
using Tick = std::uint64_t;

} // namespace sbn

#endif // SBN_CORE_TICK_HH
