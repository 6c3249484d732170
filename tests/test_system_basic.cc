/**
 * @file
 * Basic behavioural tests of the single-bus simulator: closed-form
 * degenerate cases, determinism, measurement identities.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hh"

namespace sbn {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 8;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 100000;
    return cfg;
}

TEST(SystemBasic, SingleProcessorIsUncontended)
{
    // n = 1 at p = 1 runs one processor cycle after another, each
    // exactly: issue and request grant at t, access t+1 .. t+r+1,
    // response grant at t+r+1, delivery and the next issue at t+r+2.
    // Both kernels must reproduce that timing tick for tick.
    for (int r : {1, 4, 9}) {
        for (bool buffered : {false, true}) {
            for (int m : {1, 8}) {
                SystemConfig cfg = baseConfig();
                cfg.numProcessors = 1;
                cfg.numModules = m;
                cfg.memoryRatio = r;
                cfg.buffered = buffered;
                cfg.collectLatency = true;
                std::uint64_t completed[2] = {};
                std::uint64_t busy[2] = {};
                for (KernelKind kernel :
                     {KernelKind::CycleSkip, KernelKind::FastStat}) {
                    cfg.kernel = kernel;
                    const Metrics out = runOnce(cfg);
                    const auto k = static_cast<std::size_t>(kernel);
                    completed[k] = out.completedRequests;
                    busy[k] = out.busBusyCycles;
                    SCOPED_TRACE(testing::Message()
                                 << "r=" << r << " buffered=" << buffered
                                 << " m=" << m << " kernel=" << k);

                    // No request ever waits: service is exactly r + 2.
                    EXPECT_EQ(out.waitStats.min(), 0.0);
                    EXPECT_EQ(out.waitStats.max(), 0.0);
                    EXPECT_EQ(out.meanServiceCycles, r + 2.0);

                    // One completion per r + 2 cycles, two bus cycles
                    // (request, response) per completion.
                    const double cycles =
                        static_cast<double>(cfg.measureCycles) / (r + 2);
                    EXPECT_NEAR(static_cast<double>(out.completedRequests),
                                cycles, 1.0);
                    EXPECT_NEAR(static_cast<double>(out.busBusyCycles),
                                2.0 * static_cast<double>(
                                          out.completedRequests),
                                1.0);

                    // Service starts one tick after issue and the
                    // response arrives r + 2 ticks after it.
                    ASSERT_TRUE(out.latencyWait.has_value());
                    EXPECT_EQ(out.latencyWait->quantile(0), 1.0);
                    EXPECT_LT(out.latencyWait->quantile(1), 2.0);
                    EXPECT_EQ(out.latencyWait->underflow(), 0u);
                    EXPECT_EQ(out.latencyWait->maxSample(), 1.0);
                    ASSERT_TRUE(out.latencyResidence.has_value());
                    EXPECT_EQ(out.latencyResidence->maxSample(), r + 2.0);
                }
                EXPECT_EQ(completed[0], completed[1])
                    << "r=" << r << " buffered=" << buffered << " m=" << m;
                EXPECT_EQ(busy[0], busy[1])
                    << "r=" << r << " buffered=" << buffered << " m=" << m;
            }
        }
    }
}

TEST(TraceIntegration, UncontendedCycleSequence)
{
    // n = 1, m = 1, r = 3: the first processor cycles are fully
    // deterministic: issue and request grant at 0, access [1, 4),
    // response grant at 4, delivery and the next issue at 5. A window
    // of T ticks counts the events at ticks 0 .. T-1 (an access when it
    // ends, a completion at its response grant), so the counters at
    // every horizon T trace that sequence tick by tick, in both kernels.
    struct Horizon
    {
        std::uint64_t ticks, issued, busBusy, moduleBusy, completed;
    };
    const Horizon trace[] = {
        {1, 1, 1, 0, 0}, // issue and request grant at 0
        {2, 1, 1, 0, 0}, {3, 1, 1, 0, 0}, {4, 1, 1, 0, 0},
        {5, 1, 2, 3, 1}, // access [1, 4) ends, response grant at 4
        {6, 2, 3, 3, 1}, // next issue and its request grant at 5
        {7, 2, 3, 3, 1}, {8, 2, 3, 3, 1}, {9, 2, 3, 3, 1},
        {10, 2, 4, 6, 2}, // access [6, 9) ends, response grant at 9
        {11, 3, 5, 6, 2}, // third issue and request grant at 10
    };
    for (KernelKind kernel : {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (const Horizon &h : trace) {
            SystemConfig cfg;
            cfg.numProcessors = 1;
            cfg.numModules = 1;
            cfg.memoryRatio = 3;
            cfg.warmupCycles = 0;
            cfg.measureCycles = h.ticks;
            cfg.kernel = kernel;
            cfg.collectPerModule = true;
            cfg.collectLatency = true;
            const Metrics out = runOnce(cfg);
            SCOPED_TRACE(testing::Message()
                         << "kernel=" << static_cast<int>(kernel)
                         << " T=" << h.ticks);
            EXPECT_EQ(out.issuedRequests, h.issued);
            EXPECT_EQ(out.busBusyCycles, h.busBusy);
            ASSERT_EQ(out.perModuleBusyCycles.size(), 1u);
            EXPECT_EQ(out.perModuleBusyCycles[0], h.moduleBusy);
            EXPECT_EQ(out.completedRequests, h.completed);
            if (h.completed == 0)
                continue;
            // Every completed request started service one tick after
            // its issue and was delivered r + 2 = 5 ticks after it (a
            // mean equal to the max pins every sample).
            ASSERT_TRUE(out.latencyWait.has_value());
            EXPECT_EQ(out.latencyWait->count(), h.completed);
            EXPECT_EQ(out.latencyWait->mean(), 1.0);
            EXPECT_EQ(out.latencyWait->maxSample(), 1.0);
            ASSERT_TRUE(out.latencyResidence.has_value());
            EXPECT_EQ(out.latencyResidence->count(), h.completed);
            EXPECT_EQ(out.latencyResidence->mean(), 5.0);
            EXPECT_EQ(out.latencyResidence->maxSample(), 5.0);
        }
    }
}

TEST(SystemBasic, SingleModuleUnbufferedSerializes)
{
    // m = 1 unbuffered: the module turns around one request per r+2
    // cycles -> EBW = 1 exactly, independent of n.
    for (int n : {2, 4, 8}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = n;
        cfg.numModules = 1;
        const Metrics m = runOnce(cfg);
        EXPECT_NEAR(m.ebw, 1.0, 1e-2) << "n=" << n;
    }
}

TEST(SystemBasic, SingleModuleBufferedPipelines)
{
    // m = 1 buffered: the module works back-to-back -> one service per
    // max(r, 2) bus cycles (bus needs 2 cycles per service), i.e.
    // EBW = (r+2)/max(r, 2) once n >= 2 keeps the queue fed.
    for (int r : {1, 2, 4, 9}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = 6;
        cfg.numModules = 1;
        cfg.memoryRatio = r;
        cfg.buffered = true;
        const Metrics m = runOnce(cfg);
        const double expect =
            (r + 2.0) / std::max(static_cast<double>(r), 2.0);
        EXPECT_NEAR(m.ebw, expect, 0.02) << "r=" << r;
    }
}

TEST(SystemBasic, ZeroRequestProbabilityIsSilent)
{
    SystemConfig cfg = baseConfig();
    cfg.requestProbability = 0.0;
    const Metrics m = runOnce(cfg);
    EXPECT_EQ(m.completedRequests, 0u);
    EXPECT_EQ(m.issuedRequests, 0u);
    EXPECT_DOUBLE_EQ(m.ebw, 0.0);
    EXPECT_DOUBLE_EQ(m.busUtilization, 0.0);
}

TEST(SystemBasic, DeterministicForFixedSeed)
{
    SystemConfig cfg = baseConfig();
    cfg.seed = 12345;
    const Metrics a = runOnce(cfg);
    const Metrics b = runOnce(cfg);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.perProcessorCompletions, b.perProcessorCompletions);
    EXPECT_DOUBLE_EQ(a.ebw, b.ebw);
}

TEST(SystemBasic, SeedsProduceIndependentRuns)
{
    SystemConfig cfg = baseConfig();
    cfg.seed = 1;
    const Metrics a = runOnce(cfg);
    cfg.seed = 2;
    const Metrics b = runOnce(cfg);
    // Same steady state but different trajectories.
    EXPECT_NE(a.completedRequests, b.completedRequests);
    EXPECT_NEAR(a.ebw, b.ebw, 0.1);
}

TEST(SystemBasic, EbwIdentityWithBusUtilization)
{
    // EBW = Pb * (r+2) / 2 up to window boundary effects.
    for (bool buffered : {false, true}) {
        for (auto policy : {ArbitrationPolicy::ProcessorPriority,
                            ArbitrationPolicy::MemoryPriority}) {
            SystemConfig cfg = baseConfig();
            cfg.buffered = buffered;
            cfg.policy = policy;
            const Metrics m = runOnce(cfg);
            EXPECT_NEAR(m.ebw, m.ebwFromBusUtilization,
                        0.01 * m.ebw + 1e-6)
                << "buffered=" << buffered;
        }
    }
}

TEST(SystemBasic, MaxEbwRespected)
{
    for (int r : {1, 2, 8}) {
        SystemConfig cfg = baseConfig();
        cfg.numProcessors = 16;
        cfg.numModules = 16;
        cfg.memoryRatio = r;
        cfg.buffered = true;
        const Metrics m = runOnce(cfg);
        EXPECT_LE(m.ebw, cfg.maxEbw() * 1.005) << "r=" << r;
        EXPECT_LE(m.busUtilization, 1.0 + 1e-12);
    }
}

TEST(SystemBasic, SaturatesWithAmpleParallelism)
{
    // Conclusion: max EBW (r+2)/2 attainable when r < min(n, m).
    SystemConfig cfg = baseConfig();
    cfg.numProcessors = 12;
    cfg.numModules = 12;
    cfg.memoryRatio = 4;
    const Metrics m = runOnce(cfg);
    EXPECT_GT(m.busUtilization, 0.97);
}

TEST(SystemBasic, WaitTimesNonNegativeAndConsistent)
{
    SystemConfig cfg = baseConfig();
    cfg.numProcessors = 12;
    cfg.numModules = 4;
    const Metrics m = runOnce(cfg);
    EXPECT_GE(m.waitStats.min(), 0.0);
    EXPECT_NEAR(m.meanServiceCycles,
                m.meanWaitCycles + cfg.processorCycle(), 1e-9);
    EXPECT_GT(m.meanWaitCycles, 0.0); // 12 procs on 4 modules queue up
}

TEST(SystemBasic, RoughFairnessAcrossProcessors)
{
    SystemConfig cfg = baseConfig();
    cfg.measureCycles = 200000;
    const Metrics m = runOnce(cfg);
    const double mean = static_cast<double>(m.completedRequests) /
                        cfg.numProcessors;
    for (auto c : m.perProcessorCompletions)
        EXPECT_NEAR(static_cast<double>(c), mean, 0.1 * mean);
}

TEST(SystemBasic, IssuedMatchesCompletedUpToInFlight)
{
    SystemConfig cfg = baseConfig();
    const Metrics m = runOnce(cfg);
    // Every issued request either completed or is one of <= n
    // in-flight ones (plus <= n issued before the window started).
    const auto slack = static_cast<std::uint64_t>(cfg.numProcessors);
    EXPECT_LE(m.completedRequests, m.issuedRequests + slack);
    EXPECT_LE(m.issuedRequests, m.completedRequests + slack);
}

TEST(SystemBasic, ProcessorEfficiencyDefinition)
{
    SystemConfig cfg = baseConfig();
    const Metrics m = runOnce(cfg);
    EXPECT_NEAR(m.processorEfficiency, m.ebw / cfg.numProcessors, 1e-12);
    EXPECT_LE(m.processorEfficiency, 1.0 + 1e-9);
}

TEST(SystemBasic, RunIsSingleShot)
{
    SystemConfig cfg = baseConfig();
    cfg.measureCycles = 1000;
    SingleBusSystem system(cfg);
    (void)system.run();
    EXPECT_DEATH((void)system.run(), "run may only be called once");
}

} // namespace
} // namespace sbn
