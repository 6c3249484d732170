#include "core/experiment.hh"

#include "core/faststat.hh"
#include "exec/parallel_runner.hh"
#include "util/logging.hh"

namespace sbn {

Metrics
runOnce(const SystemConfig &config)
{
    if (config.kernel == KernelKind::FastStat) {
        FastStatSystem system(config);
        return system.run();
    }
    SingleBusSystem system(config);
    return system.run();
}

double
runEbw(const SystemConfig &config)
{
    return runOnce(config).ebw;
}

PointSample
runPointSample(const SystemConfig &config)
{
    const Metrics m = runOnce(config);
    PointSample sample;
    sample.ebw = m.ebw;
    if (m.latencyWait && m.latencyResidence) {
        sample.hasLatency = true;
        sample.latency = summarizeLatency(*m.latencyWait,
                                          *m.latencyResidence);
    }
    return sample;
}

namespace {

/** The shared runner for a helper's @p threads argument. */
ParallelRunner &
helperRunner(unsigned threads)
{
    return sharedParallelRunner(threads != 0 ? threads
                                             : defaultExecThreads());
}

/** runOnce(point) with a replication seed, reduced to @p metric. */
double
metricAtSeed(const SystemConfig &point, std::uint64_t seed,
             const std::function<double(const Metrics &)> &metric)
{
    SystemConfig c = point;
    c.seed = seed;
    return metric(runOnce(c));
}

} // namespace

Estimate
replicate(const SystemConfig &config, unsigned replications,
          const std::function<double(const Metrics &)> &metric,
          unsigned threads)
{
    sbn_assert(replications >= 1, "need at least one replication");
    ReplicationRounds rounds(config.seed);
    const std::vector<std::uint64_t> seeds =
        rounds.seedsForExtension(replications);
    rounds.accept(helperRunner(threads).map<double>(
        seeds.size(), [&](std::size_t i) {
            return metricAtSeed(config, seeds[i], metric);
        }));
    return rounds.estimate();
}

Estimate
replicateEbw(const SystemConfig &config, unsigned replications,
             unsigned threads)
{
    return replicate(
        config, replications,
        [](const Metrics &m) { return m.ebw; }, threads);
}

AdaptiveEstimate
replicateToPrecision(const SystemConfig &config,
                     const PrecisionTarget &target,
                     const std::function<double(const Metrics &)> &metric,
                     const RoundSchedule &schedule, unsigned threads)
{
    const AdaptiveReplicator replicator(helperRunner(threads), target,
                                        schedule);
    return replicator
        .runPoints({config},
                   [&](const SystemConfig &point, std::uint64_t seed) {
                       return metricAtSeed(point, seed, metric);
                   })
        .front();
}

AdaptiveEstimate
replicateEbwToPrecision(const SystemConfig &config,
                        const PrecisionTarget &target,
                        const RoundSchedule &schedule, unsigned threads)
{
    return replicateToPrecision(
        config, target, [](const Metrics &m) { return m.ebw; },
        schedule, threads);
}

} // namespace sbn
