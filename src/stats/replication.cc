#include "stats/replication.hh"

#include <cmath>

#include "util/logging.hh"

namespace sbn {

bool
Estimate::covers(double value, double slack) const
{
    return std::abs(value - mean) <= halfWidth + slack;
}

ReplicationRounds::ReplicationRounds(std::uint64_t master_seed,
                                     double level)
    : seeder_(master_seed), level_(level)
{}

std::vector<std::uint64_t>
ReplicationRounds::seedsForExtension(unsigned target)
{
    sbn_assert(derived_ == completed(),
               "previous extension not accepted yet");
    std::vector<std::uint64_t> seeds;
    if (target <= derived_)
        return seeds;
    seeds.reserve(target - derived_);
    while (derived_ < target) {
        seeds.push_back(seeder_.deriveSeed());
        ++derived_;
    }
    return seeds;
}

void
ReplicationRounds::accept(const std::vector<double> &values)
{
    sbn_assert(completed() + values.size() == derived_,
               "extension result count does not match the seeds "
               "handed out");
    for (double value : values)
        acc_.add(value);
}

Estimate
ReplicationRounds::estimate() const
{
    Estimate e;
    e.mean = acc_.mean();
    e.halfWidth =
        acc_.count() >= 2 ? acc_.confidenceHalfWidth(level_) : 0.0;
    e.samples = acc_.count();
    return e;
}

} // namespace sbn
