#include "core/config.hh"

#include <limits>

#include "util/logging.hh"

namespace sbn {

bool
SystemConfig::validate(std::string &error) const
{
    if (numProcessors < 1)
        return failWith(error, "numProcessors must be >= 1, got ",
                        numProcessors);
    if (numModules < 1)
        return failWith(error, "numModules must be >= 1, got ",
                        numModules);
    if (memoryRatio < 1)
        return failWith(error, "memoryRatio (r) must be >= 1, got ",
                        memoryRatio);
    // NaN-safe: a NaN p fails both comparisons, so ask for the range.
    if (!(requestProbability >= 0.0 && requestProbability <= 1.0))
        return failWith(error, "requestProbability must be in [0,1], got ",
                        requestProbability);
    if (inputCapacity < 0 || outputCapacity < 0)
        return failWith(error,
                        "buffer capacities must be >= 0 (0 = unbounded)");
    if (!buffered && (inputCapacity != 0 || outputCapacity != 0))
        return failWith(error,
                        "buffer capacities require buffered = true");
    if (!workload.validate(numProcessors, numModules, error))
        return false;
    if (measureCycles < 1)
        return failWith(error, "measureCycles must be >= 1");
    if (warmupCycles > std::numeric_limits<Tick>::max() - measureCycles)
        return failWith(error, "warmupCycles + measureCycles (",
                        warmupCycles, " + ", measureCycles,
                        ") overflows the tick range");
    return true;
}

void
SystemConfig::validate() const
{
    std::string error;
    if (!validate(error))
        sbn_fatal(error);
}

} // namespace sbn
