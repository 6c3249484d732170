/**
 * @file
 * Tests for the opt-in per-module metric breakdowns
 * (config.collectPerModule) and the multibus baseline's per-bus
 * breakdown: golden pins of the per-module vectors, additivity
 * (enabling the breakdown changes no other field), internal
 * consistency with the aggregate counters, an analytic cross-check
 * against the weighted occupancy chain's moduleBusy, and the per-bus
 * busy-slot invariants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/multibus_sim.hh"
#include "core/experiment.hh"
#include "golden_util.hh"
#include "workload/analytic.hh"

namespace sbn {
namespace {

using golden::GoldenLine;
using golden::checkExactGolden;
using golden::exact;

/**
 * Pin the per-module vectors on the same grid test_kernel_golden.cc
 * pins the aggregate Metrics on, so drift in the breakdown
 * accounting (a queue-depth off-by-one, a busy-cycle window clip)
 * fails with the offending config and module named.
 */
TEST(GoldenPerModule, CycleSkipPinnedGrid)
{
    std::vector<GoldenLine> computed;
    for (const int n : {2, 8}) {
        for (const int m : {2, 8}) {
            for (const int r : {2, 8}) {
                for (const double p : {0.1, 1.0}) {
                    for (const bool buffered : {false, true}) {
                        SystemConfig cfg;
                        cfg.numProcessors = n;
                        cfg.numModules = m;
                        cfg.memoryRatio = r;
                        cfg.requestProbability = p;
                        cfg.buffered = buffered;
                        cfg.warmupCycles = 500;
                        cfg.measureCycles = 5000;
                        cfg.seed = 20260727;
                        cfg.collectPerModule = true;

                        char label[64];
                        std::snprintf(label, sizeof label,
                                      "n=%d m=%d r=%d p=%.1f buf=%d",
                                      n, m, r, p, buffered ? 1 : 0);

                        const Metrics metrics = runOnce(cfg);
                        ASSERT_EQ(metrics.perModuleBusyCycles.size(),
                                  static_cast<std::size_t>(m));
                        for (int j = 0; j < m; ++j) {
                            char mod[96];
                            std::snprintf(mod, sizeof mod, "%s mod%d",
                                          label, j);
                            const std::string key = mod;
                            computed.push_back(
                                {key + " busy",
                                 exact(metrics
                                           .perModuleBusyCycles[j])});
                            computed.push_back(
                                {key + " qavg",
                                 exact(metrics
                                           .perModuleQueueDepthAvg
                                               [j])});
                            computed.push_back(
                                {key + " qmax",
                                 exact(metrics
                                           .perModuleQueueDepthMax
                                               [j])});
                        }
                    }
                }
            }
        }
    }
    checkExactGolden("permodule_metrics", computed);
}

/**
 * The breakdown is additive: enabling it must not change any other
 * field (same RNG stream, same grant decisions), and with it off the
 * vectors stay empty - in both kernels.
 */
TEST(PerModule, EnablingChangesNoOtherField)
{
    for (const KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (const bool buffered : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "kernel=" << static_cast<int>(kernel)
                         << " buffered=" << buffered);
            SystemConfig cfg;
            cfg.kernel = kernel;
            cfg.numProcessors = 6;
            cfg.numModules = 4;
            cfg.memoryRatio = 4;
            cfg.requestProbability = 0.7;
            cfg.buffered = buffered;
            cfg.warmupCycles = 500;
            cfg.measureCycles = 20000;
            cfg.seed = 99;

            const Metrics off = runOnce(cfg);
            EXPECT_TRUE(off.perModuleBusyCycles.empty());
            EXPECT_TRUE(off.perModuleUtilization.empty());
            EXPECT_TRUE(off.perModuleQueueDepthAvg.empty());
            EXPECT_TRUE(off.perModuleQueueDepthMax.empty());

            cfg.collectPerModule = true;
            const Metrics on = runOnce(cfg);
            EXPECT_EQ(on.completedRequests, off.completedRequests);
            EXPECT_EQ(on.issuedRequests, off.issuedRequests);
            EXPECT_EQ(on.busBusyCycles, off.busBusyCycles);
            EXPECT_EQ(on.ebw, off.ebw);
            EXPECT_EQ(on.meanWaitCycles, off.meanWaitCycles);
            EXPECT_EQ(on.meanServiceCycles, off.meanServiceCycles);
            EXPECT_EQ(on.meanModuleUtilization, off.meanModuleUtilization);
            ASSERT_EQ(on.perModuleBusyCycles.size(), 4u);
            ASSERT_EQ(on.perModuleUtilization.size(), 4u);
            ASSERT_EQ(on.perModuleQueueDepthAvg.size(), 4u);
            ASSERT_EQ(on.perModuleQueueDepthMax.size(), 4u);
        }
    }
}

/** Per-module utilizations must average to meanModuleUtilization and
 *  derive exactly from the busy-cycle counts - in both kernels. */
TEST(PerModule, UtilizationConsistentWithAggregate)
{
    for (const KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (const bool buffered : {false, true}) {
            SystemConfig cfg;
            cfg.kernel = kernel;
            cfg.numProcessors = 8;
            cfg.numModules = 5;
            cfg.memoryRatio = 3;
            cfg.requestProbability = 0.8;
            cfg.buffered = buffered;
            cfg.warmupCycles = 1000;
            cfg.measureCycles = 50000;
            cfg.seed = 7;
            cfg.collectPerModule = true;

            const Metrics m = runOnce(cfg);
            ASSERT_EQ(m.perModuleUtilization.size(), 5u);
            double sum = 0.0;
            for (int j = 0; j < 5; ++j) {
                EXPECT_DOUBLE_EQ(
                    m.perModuleUtilization[j],
                    static_cast<double>(m.perModuleBusyCycles[j]) /
                        static_cast<double>(m.measuredCycles));
                sum += m.perModuleUtilization[j];
            }
            EXPECT_NEAR(sum / 5.0, m.meanModuleUtilization, 1e-12)
                << "kernel=" << static_cast<int>(kernel)
                << " buffered=" << buffered;
        }
    }
}

/**
 * Analytic cross-check: under the weighted occupancy chain's
 * hypotheses (memory-priority bus, p = 1), the sim's per-module
 * access-cycle *shares* track the chain's stationary moduleBusy
 * shares. The quantities differ in kind - the chain's moduleBusy is
 * P(module occupied), the sim counts in-access cycles - but every
 * access occupies a module for the same r cycles, so throughput
 * shares (and hence busy-cycle shares) must agree. Empirically the
 * share ratio sits within ~2% at these run lengths; 4% is asserted,
 * the same tolerance band the EBW-level chain-vs-sim test uses.
 */
TEST(PerModuleVsChain, HotSpotSharesTrackModuleBusy)
{
    for (const double hot : {0.3, 0.6}) {
        SystemConfig cfg;
        cfg.numProcessors = 4;
        cfg.numModules = 4;
        cfg.memoryRatio = 5;
        cfg.policy = ArbitrationPolicy::MemoryPriority;
        cfg.warmupCycles = 10000;
        cfg.measureCycles = 300000;
        cfg.collectPerModule = true;
        WorkloadConfig workload;
        workload.pattern = ReferencePattern::HotSpot;
        workload.hotFraction = hot;
        cfg.workload = workload;

        const Metrics metrics = runOnce(cfg);
        const WeightedChainResult chain = solveWeightedOccupancyChain(
            cfg.numProcessors, cfg.numModules, cfg.memoryRatio + 1,
            workload.moduleProbabilities(0, cfg.numModules));

        ASSERT_EQ(metrics.perModuleUtilization.size(), 4u);
        ASSERT_EQ(chain.moduleBusy.size(), 4u);
        const double simTotal =
            std::accumulate(metrics.perModuleUtilization.begin(),
                            metrics.perModuleUtilization.end(), 0.0);
        const double chainTotal = std::accumulate(
            chain.moduleBusy.begin(), chain.moduleBusy.end(), 0.0);
        ASSERT_GT(simTotal, 0.0);
        ASSERT_GT(chainTotal, 0.0);
        for (int j = 0; j < 4; ++j) {
            const double simShare =
                metrics.perModuleUtilization[j] / simTotal;
            const double chainShare =
                chain.moduleBusy[j] / chainTotal;
            const double ratio = simShare / chainShare;
            EXPECT_GT(ratio, 0.96)
                << "hot=" << hot << " module " << j;
            EXPECT_LT(ratio, 1.04)
                << "hot=" << hot << " module " << j;
        }
    }
}

/** Queue depths: bounded by what can actually wait, and a hot module
 *  must hold the deepest time-averaged queue. */
TEST(PerModule, QueueDepthBoundsAndOrdering)
{
    SystemConfig cfg;
    cfg.numProcessors = 6;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 100000;
    cfg.collectPerModule = true;
    WorkloadConfig workload;
    workload.pattern = ReferencePattern::HotSpot;
    workload.hotFraction = 0.6;
    cfg.workload = workload;

    const Metrics m = runOnce(cfg);
    ASSERT_EQ(m.perModuleQueueDepthAvg.size(), 4u);
    for (int j = 0; j < 4; ++j) {
        EXPECT_GE(m.perModuleQueueDepthAvg[j], 0.0);
        // No more requests can wait on a module than processors exist.
        EXPECT_LE(m.perModuleQueueDepthMax[j],
                  static_cast<std::uint64_t>(cfg.numProcessors));
        EXPECT_LE(m.perModuleQueueDepthAvg[j],
                  static_cast<double>(m.perModuleQueueDepthMax[j]));
    }
    // Module 0 is the hot spot: deepest average queue.
    for (int j = 1; j < 4; ++j)
        EXPECT_GT(m.perModuleQueueDepthAvg[0],
                  m.perModuleQueueDepthAvg[j]);
}

/** Per-bus busy slots of the multibus baseline: suffix-sum structure
 *  (bus k busy exactly when > k modules serviced), totals matching
 *  the completion count, and exact utilization derivation. */
TEST(MultibusPerBus, BusySlotInvariants)
{
    for (const int buses : {2, 4, 8}) {
        MultibusSimConfig cfg;
        cfg.numProcessors = 8;
        cfg.numModules = 8;
        cfg.buses = buses;
        cfg.requestProbability = 0.7;
        cfg.seed = 42;
        cfg.warmupSlots = 1000;
        cfg.measureSlots = 20000;

        const MultibusSimResult res = runMultibusSim(cfg);
        ASSERT_EQ(res.perBusBusySlots.size(),
                  static_cast<std::size_t>(buses));
        ASSERT_EQ(res.perBusUtilization.size(),
                  static_cast<std::size_t>(buses));

        std::uint64_t total = 0;
        for (int k = 0; k < buses; ++k) {
            if (k > 0) {
                // Bus k carries a transfer only in slots where bus
                // k-1 does too: busy-slot counts are non-increasing.
                EXPECT_LE(res.perBusBusySlots[k],
                          res.perBusBusySlots[k - 1]);
            }
            EXPECT_LE(res.perBusBusySlots[k], res.measuredSlots);
            EXPECT_DOUBLE_EQ(
                res.perBusUtilization[k],
                static_cast<double>(res.perBusBusySlots[k]) /
                    static_cast<double>(res.measuredSlots));
            total += res.perBusBusySlots[k];
        }
        // Each completion occupies exactly one bus for one slot.
        EXPECT_EQ(total, res.completions);
    }
}

/** The per-bus accounting is derived after the run and must not
 *  perturb the RNG stream: bandwidth matches a pre-breakdown seed. */
TEST(MultibusPerBus, AccountingDoesNotPerturbBandwidth)
{
    MultibusSimConfig cfg;
    cfg.numProcessors = 6;
    cfg.numModules = 6;
    cfg.buses = 3;
    cfg.seed = 7;
    const MultibusSimResult a = runMultibusSim(cfg);
    const MultibusSimResult b = runMultibusSim(cfg);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.bandwidth, b.bandwidth);
    EXPECT_EQ(a.perBusBusySlots, b.perBusBusySlots);
}

} // namespace
} // namespace sbn
