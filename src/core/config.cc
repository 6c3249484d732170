#include "core/config.hh"

#include <limits>

#include "util/logging.hh"

namespace sbn {

void
SystemConfig::validate() const
{
    if (numProcessors < 1)
        sbn_fatal("numProcessors must be >= 1, got ", numProcessors);
    if (numModules < 1)
        sbn_fatal("numModules must be >= 1, got ", numModules);
    if (memoryRatio < 1)
        sbn_fatal("memoryRatio (r) must be >= 1, got ", memoryRatio);
    if (requestProbability < 0.0 || requestProbability > 1.0)
        sbn_fatal("requestProbability must be in [0,1], got ",
                  requestProbability);
    if (inputCapacity < 0 || outputCapacity < 0)
        sbn_fatal("buffer capacities must be >= 0 (0 = unbounded)");
    if (!buffered && (inputCapacity != 0 || outputCapacity != 0))
        sbn_fatal("buffer capacities require buffered = true");
    workload.validate(numProcessors, numModules);
    if (measureCycles < 1)
        sbn_fatal("measureCycles must be >= 1");
    if (warmupCycles > std::numeric_limits<Tick>::max() - measureCycles)
        sbn_fatal("warmupCycles + measureCycles (", warmupCycles, " + ",
                  measureCycles, ") overflows the tick range");
}

} // namespace sbn
