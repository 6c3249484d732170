/**
 * @file
 * Latency-distribution tests (config.collectLatency): passivity of
 * the collection, determinism of the flat-JSON render across thread
 * counts and shard/serial merge order, internal consistency of the
 * wait/residence histograms against the scalar wait statistics, and
 * the record-carried quantile summary.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "exec/parallel_runner.hh"
#include "stats/accumulator.hh"

namespace sbn {
namespace {

/** A saturated config: demand far beyond what the bus can serve, so
 *  waits are long and the distribution has a pronounced right tail. */
SystemConfig
saturatedConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 16;
    cfg.numModules = 4;
    cfg.memoryRatio = 8;
    cfg.requestProbability = 0.9;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 30000;
    cfg.collectLatency = true;
    cfg.seed = 41;
    return cfg;
}

/** Per-replication configs with deterministically distinct seeds. */
std::vector<SystemConfig>
replicationConfigs(const SystemConfig &base, std::size_t count)
{
    std::vector<SystemConfig> configs(count, base);
    for (std::size_t i = 0; i < count; ++i)
        configs[i].seed = base.seed + 1000 * (i + 1);
    return configs;
}

/** Every Metrics field neither collection flag owns, bit for bit. */
void
expectSameUncollectedFields(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.issuedRequests, b.issuedRequests);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.ebw, b.ebw);
    EXPECT_EQ(a.ebwFromBusUtilization, b.ebwFromBusUtilization);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
    EXPECT_EQ(a.meanModuleUtilization, b.meanModuleUtilization);
    EXPECT_EQ(a.processorEfficiency, b.processorEfficiency);
    EXPECT_EQ(a.meanWaitCycles, b.meanWaitCycles);
    EXPECT_EQ(a.meanServiceCycles, b.meanServiceCycles);
    EXPECT_EQ(a.waitStats.count(), b.waitStats.count());
    EXPECT_EQ(a.waitStats.mean(), b.waitStats.mean());
    EXPECT_EQ(a.waitStats.variance(), b.waitStats.variance());
    EXPECT_EQ(a.waitStats.min(), b.waitStats.min());
    EXPECT_EQ(a.waitStats.max(), b.waitStats.max());
    EXPECT_EQ(a.perProcessorCompletions, b.perProcessorCompletions);
}

TEST(Latency, CollectionIsPassive)
{
    // Enabling collectLatency, collectPerModule or both must not
    // perturb the simulation: every other field is bit-identical to a
    // collection-off run, in both kernels and both organizations, and
    // neither flag changes what the other collects.
    for (KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (bool buffered : {false, true}) {
            SystemConfig off = saturatedConfig();
            off.kernel = kernel;
            off.buffered = buffered;
            off.collectLatency = false;
            const Metrics base = runOnce(off);
            EXPECT_FALSE(base.latencyWait.has_value());
            EXPECT_FALSE(base.latencyResidence.has_value());
            EXPECT_TRUE(base.perModuleBusyCycles.empty());

            std::vector<Metrics> on;
            for (int flags : {1, 2, 3}) {
                SystemConfig cfg = off;
                cfg.collectLatency = (flags & 1) != 0;
                cfg.collectPerModule = (flags & 2) != 0;
                SCOPED_TRACE(::testing::Message()
                             << "kernel=" << static_cast<int>(kernel)
                             << " buffered=" << buffered
                             << " latency=" << cfg.collectLatency
                             << " perModule=" << cfg.collectPerModule);
                on.push_back(runOnce(cfg));
                const Metrics &m = on.back();
                expectSameUncollectedFields(base, m);
                ASSERT_EQ(m.latencyWait.has_value(), cfg.collectLatency);
                ASSERT_EQ(m.latencyResidence.has_value(),
                          cfg.collectLatency);
                EXPECT_EQ(m.perModuleBusyCycles.size(),
                          cfg.collectPerModule ? 4u : 0u);
                if (cfg.collectLatency) {
                    EXPECT_GT(m.latencyWait->count(), 0u);
                }
            }
            // Both flags together collect exactly what each collects
            // alone.
            const Metrics &latency = on[0];
            const Metrics &perModule = on[1];
            const Metrics &both = on[2];
            EXPECT_EQ(both.latencyWait->renderFlatJson(),
                      latency.latencyWait->renderFlatJson());
            EXPECT_EQ(both.latencyResidence->renderFlatJson(),
                      latency.latencyResidence->renderFlatJson());
            EXPECT_EQ(both.perModuleBusyCycles,
                      perModule.perModuleBusyCycles);
            EXPECT_EQ(both.perModuleQueueDepthAvg,
                      perModule.perModuleQueueDepthAvg);
            EXPECT_EQ(both.perModuleQueueDepthMax,
                      perModule.perModuleQueueDepthMax);
        }
    }
}

TEST(Latency, ResidenceHistogramMatchesServiceStats)
{
    // Residence samples (issue -> delivery) are the same multiset as
    // the service-time statistics, so the histogram's exact mean
    // reproduces meanServiceCycles, and the wait histogram (issue ->
    // service start) sits strictly inside it - in both kernels.
    for (KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        SystemConfig cfg = saturatedConfig();
        cfg.kernel = kernel;
        const Metrics m = runOnce(cfg);
        ASSERT_TRUE(m.latencyResidence.has_value());
        ASSERT_TRUE(m.latencyWait.has_value());
        EXPECT_EQ(m.latencyResidence->count(), m.completedRequests);
        EXPECT_EQ(m.latencyWait->count(), m.completedRequests);
        EXPECT_NEAR(m.latencyResidence->mean(), m.meanServiceCycles,
                    1e-9 * m.meanServiceCycles);
        EXPECT_LT(m.latencyWait->mean(), m.latencyResidence->mean());
    }
}

TEST(Latency, FlatJsonByteIdenticalAcrossThreads)
{
    // The acceptance contract: merged latency histograms render
    // byte-identically at 1, 4, and hardware thread counts, and when
    // the replications are split across shards and merged the other
    // way around. Integer cycle samples make the running sum exact,
    // so merge order cannot leak into the bytes.
    const auto configs = replicationConfigs(saturatedConfig(), 8);

    auto mergedRender = [&](unsigned threads) {
        const ParallelRunner runner(threads);
        const std::vector<Metrics> runs = runner.map<Metrics>(
            configs.size(),
            [&](std::size_t i) { return runOnce(configs[i]); });
        Histogram wait = makeLatencyHistogram();
        Histogram residence = makeLatencyHistogram();
        for (const Metrics &m : runs) {
            wait.merge(*m.latencyWait);
            residence.merge(*m.latencyResidence);
        }
        return wait.renderFlatJson() + "\n" +
               residence.renderFlatJson();
    };

    const std::string serial = mergedRender(1);
    EXPECT_EQ(mergedRender(4), serial);
    EXPECT_EQ(mergedRender(0), serial); // hardware thread count

    // Shard-style merge: two disjoint halves merged independently,
    // then folded together - the path sharded sweeps take.
    Histogram shardWait[2] = {makeLatencyHistogram(),
                              makeLatencyHistogram()};
    for (std::size_t i = 0; i < configs.size(); ++i)
        shardWait[i % 2].merge(*runOnce(configs[i]).latencyWait);
    shardWait[0].merge(shardWait[1]);
    EXPECT_EQ(shardWait[0].renderFlatJson(),
              serial.substr(0, serial.find('\n')));
}

TEST(Latency, SaturatedWaitQuantilesConsistentWithMean)
{
    // On a saturated config the merged wait distribution must be
    // self-consistent: its exact mean lies within the replication
    // confidence interval of the per-run means, and the right tail
    // dominates (p99 >= mean >= p50, max >= p99).
    const auto configs = replicationConfigs(saturatedConfig(), 8);

    Histogram wait = makeLatencyHistogram();
    Accumulator perRunMeans;
    for (const SystemConfig &cfg : configs) {
        const Metrics m = runOnce(cfg);
        wait.merge(*m.latencyWait);
        perRunMeans.add(m.latencyWait->mean());
    }

    const double mean = wait.mean();
    const double half = perRunMeans.confidenceHalfWidth(0.95);
    EXPECT_NEAR(mean, perRunMeans.mean(), half);

    const double p50 = wait.quantile(0.50);
    const double p99 = wait.quantile(0.99);
    EXPECT_GE(p99, mean);
    EXPECT_GE(mean, p50);
    EXPECT_GE(wait.maxSample(), p99 - 1e-9);
    EXPECT_GT(p99, p50); // a saturated tail is visibly spread out
}

TEST(Latency, PointSampleSummaryMatchesHistograms)
{
    // The record-carried summary is exactly summarizeLatency() of the
    // run's histograms - the sweep path adds nothing of its own.
    const SystemConfig cfg = saturatedConfig();
    const PointSample sample = runPointSample(cfg);
    const Metrics m = runOnce(cfg);

    ASSERT_TRUE(sample.hasLatency);
    const LatencySummary expect =
        summarizeLatency(*m.latencyWait, *m.latencyResidence);
    EXPECT_EQ(sample.latency.samples, expect.samples);
    EXPECT_EQ(sample.latency.waitP50, expect.waitP50);
    EXPECT_EQ(sample.latency.waitP99, expect.waitP99);
    EXPECT_EQ(sample.latency.waitMax, expect.waitMax);
    EXPECT_EQ(sample.latency.residenceP50, expect.residenceP50);
    EXPECT_EQ(sample.latency.residenceP99, expect.residenceP99);
    EXPECT_EQ(sample.latency.residenceMax, expect.residenceMax);

    // And without the flag, no summary rides along.
    SystemConfig off = cfg;
    off.collectLatency = false;
    EXPECT_FALSE(runPointSample(off).hasLatency);
}

} // namespace
} // namespace sbn
