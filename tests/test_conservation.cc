/**
 * @file
 * Conservation laws between the passively collected outputs
 * (core/collector.hh), checked in both kernels.
 *
 * Each law ties two fields that are counted at different state
 * transitions: queue depth (issue and dequeue) against wait samples
 * (issue, service start and completion), and bus or module busy
 * cycles (grants and access spans) against completions. So a dropped,
 * doubled or misplaced collector call fails here, even for a field
 * that no golden file pins, such as anything FastStat reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <numeric>

#include "core/experiment.hh"

namespace sbn {
namespace {

constexpr int kProcessors = 12;
constexpr int kModules = 4;
constexpr int kMemoryRatio = 6;

/**
 * Run every kernel x organization x reference pattern x p
 * combination once, with both collection flags on, and hand each
 * result to @p check under a trace naming the combination.
 */
void
forEachCase(const std::function<void(const SystemConfig &,
                                     const Metrics &)> &check)
{
    for (KernelKind kernel :
         {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (bool buffered : {false, true}) {
            for (double hot : {0.0, 0.5}) {
                for (double p : {0.3, 1.0}) {
                    SystemConfig cfg;
                    cfg.kernel = kernel;
                    cfg.numProcessors = kProcessors;
                    cfg.numModules = kModules;
                    cfg.memoryRatio = kMemoryRatio;
                    cfg.requestProbability = p;
                    cfg.buffered = buffered;
                    if (hot > 0.0) {
                        cfg.workload.pattern = ReferencePattern::HotSpot;
                        cfg.workload.hotFraction = hot;
                    }
                    cfg.warmupCycles = 5000;
                    cfg.measureCycles = 100000;
                    cfg.seed = 4242;
                    cfg.collectPerModule = true;
                    cfg.collectLatency = true;

                    SCOPED_TRACE(::testing::Message()
                                 << "kernel=" << static_cast<int>(kernel)
                                 << " buffered=" << buffered
                                 << " h=" << hot << " p=" << p);
                    const Metrics m = runOnce(cfg);
                    ASSERT_TRUE(m.latencyWait.has_value());
                    ASSERT_EQ(m.perModuleBusyCycles.size(),
                              static_cast<std::size_t>(kModules));
                    ASSERT_GT(m.completedRequests, 0u);
                    check(cfg, m);
                }
            }
        }
    }
}

/**
 * Little's law: the time-integrated queue depth summed over modules
 * equals the total time requests spent queued. A request queues from
 * its issue until it leaves the queue. A buffered request leaves when
 * its service starts, so its queued time is its latencyWait sample.
 * An unbuffered request leaves at its grant and starts service one
 * transfer cycle later, so each completion queued one cycle less
 * than its sample. Only requests straddling a window edge separate
 * the two sides, so they agree within 1 %.
 */
TEST(Conservation, LittlesLawQueueDepthMatchesWaits)
{
    forEachCase([](const SystemConfig &cfg, const Metrics &m) {
        const double cycles = static_cast<double>(m.measuredCycles);
        double queued = 0.0;
        for (double depth : m.perModuleQueueDepthAvg)
            queued += depth * cycles;

        const double samples = static_cast<double>(m.latencyWait->count());
        double waited = m.latencyWait->mean() * samples;
        if (!cfg.buffered)
            waited -= static_cast<double>(m.completedRequests);

        ASSERT_GT(waited, 0.0);
        EXPECT_LE(std::fabs(queued - waited), 0.01 * waited)
            << "queue-depth integral " << queued << " vs queued time "
            << waited;
    });
}

/**
 * Every completion is one request transfer plus one response
 * transfer. A processor has at most one request outstanding, so at
 * most one request per processor straddles each window edge: the bus
 * busy count is within n of two transfers per completion.
 */
TEST(Conservation, BusBusyIsTwoTransfersPerCompletion)
{
    forEachCase([](const SystemConfig &cfg, const Metrics &m) {
        const auto busy = static_cast<std::int64_t>(m.busBusyCycles);
        const auto transfers =
            2 * static_cast<std::int64_t>(m.completedRequests);
        EXPECT_LE(std::llabs(busy - transfers), cfg.numProcessors)
            << "bus busy " << busy << " vs transfers " << transfers;
    });
}

/**
 * Every completion is one r-cycle memory access. By the same
 * straddling argument as for the bus, the summed per-module busy
 * cycles are within n * r of r cycles per completion.
 */
TEST(Conservation, ModuleBusyIsRCyclesPerCompletion)
{
    forEachCase([](const SystemConfig &cfg, const Metrics &m) {
        const auto busy = static_cast<std::int64_t>(
            std::accumulate(m.perModuleBusyCycles.begin(),
                            m.perModuleBusyCycles.end(),
                            std::uint64_t{0}));
        const auto access = static_cast<std::int64_t>(cfg.memoryRatio) *
                            static_cast<std::int64_t>(m.completedRequests);
        EXPECT_LE(std::llabs(busy - access),
                  static_cast<std::int64_t>(cfg.numProcessors) *
                      cfg.memoryRatio)
            << "module busy " << busy << " vs accesses " << access;
    });
}

} // namespace
} // namespace sbn
