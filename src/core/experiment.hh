/**
 * @file
 * Convenience runners for simulation experiments: single runs and
 * independent-replication confidence intervals over any Metrics
 * field.
 */

#ifndef SBN_CORE_EXPERIMENT_HH
#define SBN_CORE_EXPERIMENT_HH

#include <functional>

#include "core/config.hh"
#include "core/metrics.hh"
#include "core/system.hh"
#include "exec/adaptive.hh"
#include "stats/replication.hh"

namespace sbn {

/** Run one system to completion and return its metrics. */
Metrics runOnce(const SystemConfig &config);

/** Run one system and return only its EBW (common case). */
double runEbw(const SystemConfig &config);

/**
 * The per-point payload of a sweep record: EBW plus, when the config
 * collected latency histograms, their quantile summary. hasLatency
 * mirrors config.collectLatency for the run that produced it.
 */
struct PointSample
{
    double ebw = 0.0;
    bool hasLatency = false;
    LatencySummary latency;
};

/** Run one system and return its EBW + optional latency summary. */
PointSample runPointSample(const SystemConfig &config);

/**
 * Run @p replications independent copies of @p config (seeds derived
 * deterministically from config.seed) and summarize the chosen metric
 * with a Student-t confidence interval.
 *
 * Replications are independent and run through the exec layer: with
 * @p threads > 1 they execute concurrently, with results bit-identical
 * to the serial path for the same config.seed (see
 * docs/performance.md for the determinism contract).
 *
 * @param metric   extractor, e.g. [](const Metrics &m){ return m.ebw; }
 * @param threads  worker count; 0 = defaultExecThreads()
 */
Estimate replicate(const SystemConfig &config, unsigned replications,
                   const std::function<double(const Metrics &)> &metric,
                   unsigned threads = 0);

/** replicate() specialized to EBW. */
Estimate replicateEbw(const SystemConfig &config,
                      unsigned replications = 5, unsigned threads = 0);

/**
 * Adaptive-precision replicate(): grow the replication count in the
 * deterministic rounds of @p schedule until the confidence half-width
 * of the chosen metric meets @p target or the cap is reached. Seeds
 * derive from config.seed exactly as replicate() derives them, so for
 * the replication count the run ends with, the estimate is
 * bit-identical to replicate() with that count - at any thread count.
 *
 * @param threads worker count; 0 = defaultExecThreads()
 */
AdaptiveEstimate replicateToPrecision(
    const SystemConfig &config, const PrecisionTarget &target,
    const std::function<double(const Metrics &)> &metric,
    const RoundSchedule &schedule = {}, unsigned threads = 0);

/** replicateToPrecision() specialized to EBW. */
AdaptiveEstimate replicateEbwToPrecision(
    const SystemConfig &config, const PrecisionTarget &target = {},
    const RoundSchedule &schedule = {}, unsigned threads = 0);

} // namespace sbn

#endif // SBN_CORE_EXPERIMENT_HH
