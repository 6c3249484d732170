/**
 * @file
 * Golden pinned Metrics for both simulation kernels.
 *
 * The kernel-differential suite used to prove CycleSkip == Classic
 * for every configuration class; the Classic kernel is now retired
 * and this suite is the anchor in its place: it pins the *absolute*
 * Metrics of the kernel for a small configuration grid against
 * values checked in under tests/golden/, so any behavioral drift (an
 * RNG-stream reorder, a changed grant decision, an off-by-one in the
 * measurement window) fails ctest with the offending config and
 * counter named. tests/test_kernel_diff.cc pins the wider
 * Classic-era differential grid the same way.
 *
 * Comparison is *exact*: the counters are integers and the derived
 * doubles are deterministic arithmetic on them, serialized as %.17g
 * (round-trips bit-exactly, same convention as the sharded-sweep
 * record format). There is no tolerance to absorb drift - that is the
 * point.
 *
 * Regenerating after an intentional kernel-behavior change:
 *
 *     SBN_REGEN_GOLDEN=1 ./build/tests/sbn_tests \
 *         --gtest_filter='GoldenKernel*'
 *
 * then rerun without the variable and review the diff like code (see
 * docs/testing.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "golden_util.hh"

namespace sbn {
namespace {

using golden::GoldenLine;
using golden::checkExactGolden;
using golden::exact;

TEST(GoldenKernelMetrics, CycleSkipPinnedGrid)
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

                        char label[64];
                        std::snprintf(label, sizeof label,
                                      "n=%d m=%d r=%d p=%.1f buf=%d",
                                      n, m, r, p, buffered ? 1 : 0);

                        const Metrics metrics = runOnce(cfg);
                        const std::string key = label;
                        computed.push_back(
                            {key + " completed",
                             exact(metrics.completedRequests)});
                        computed.push_back(
                            {key + " issued",
                             exact(metrics.issuedRequests)});
                        computed.push_back(
                            {key + " busBusy",
                             exact(metrics.busBusyCycles)});
                        computed.push_back(
                            {key + " ebw", exact(metrics.ebw)});
                        computed.push_back(
                            {key + " busUtil",
                             exact(metrics.busUtilization)});
                        computed.push_back(
                            {key + " meanWait",
                             exact(metrics.meanWaitCycles)});
                        computed.push_back(
                            {key + " meanService",
                             exact(metrics.meanServiceCycles)});
                    }
                }
            }
        }
    }
    checkExactGolden("kernel_metrics", computed);
}

/**
 * Both arbitration policies and the OldestFirst selection extension
 * on a contended shape - the grant-decision paths Classic's removal
 * leaves without a differential reference.
 */
TEST(GoldenKernelMetrics, CycleSkipPinnedPolicyVariants)
{
    std::vector<GoldenLine> computed;
    for (const ArbitrationPolicy policy :
         {ArbitrationPolicy::ProcessorPriority,
          ArbitrationPolicy::MemoryPriority}) {
        for (const SelectionRule selection :
             {SelectionRule::Random, SelectionRule::OldestFirst}) {
            SystemConfig cfg;
            cfg.numProcessors = 6;
            cfg.numModules = 4; // more processors than modules
            cfg.memoryRatio = 4;
            cfg.policy = policy;
            cfg.selection = selection;
            cfg.warmupCycles = 500;
            cfg.measureCycles = 5000;
            cfg.seed = 20260727;

            const std::string key =
                std::string(policy ==
                                    ArbitrationPolicy::ProcessorPriority
                                ? "procprio"
                                : "memprio") +
                (selection == SelectionRule::Random ? " random"
                                                    : " oldest");
            const Metrics metrics = runOnce(cfg);
            computed.push_back({key + " completed",
                                exact(metrics.completedRequests)});
            computed.push_back(
                {key + " busBusy", exact(metrics.busBusyCycles)});
            computed.push_back({key + " ebw", exact(metrics.ebw)});
            computed.push_back(
                {key + " meanWait", exact(metrics.meanWaitCycles)});
        }
    }
    checkExactGolden("kernel_metrics_policies", computed);
}

/**
 * FastStat's exact trajectories. FastStat is validated statistically
 * against CycleSkip (tests/test_faststat.cc), but a fixed config still
 * yields a fixed trajectory, and sweep records and e2ebench's
 * `ebw_rel_err` depend on it. One contended shape (more processors
 * than modules) x both policies x both selection rules x three
 * organizations x a low and a saturated p, so every grant path runs
 * on FastStat's draws, plus one hot-spot and one favorite workload for
 * the alias sampler. Regenerate only with a stated reason why FastStat
 * trajectories move.
 */
TEST(GoldenKernelMetrics, FastStatPinnedGrid)
{
    std::vector<std::pair<std::string, SystemConfig>> cases;
    SystemConfig base;
    base.kernel = KernelKind::FastStat;
    base.numProcessors = 8;
    base.numModules = 4;
    base.memoryRatio = 4;
    base.warmupCycles = 500;
    base.measureCycles = 5000;
    base.seed = 20260727;
    for (const ArbitrationPolicy policy :
         {ArbitrationPolicy::ProcessorPriority,
          ArbitrationPolicy::MemoryPriority}) {
        for (const SelectionRule selection :
             {SelectionRule::Random, SelectionRule::OldestFirst}) {
            for (const int organization : {0, 1, 2}) {
                for (const double p : {0.3, 1.0}) {
                    SystemConfig cfg = base;
                    cfg.policy = policy;
                    cfg.selection = selection;
                    cfg.buffered = organization != 0;
                    if (organization == 2) {
                        cfg.inputCapacity = 1;
                        cfg.outputCapacity = 1;
                    }
                    cfg.requestProbability = p;
                    char label[64];
                    std::snprintf(
                        label, sizeof label, "%s %s %s p=%.1f",
                        policy == ArbitrationPolicy::ProcessorPriority
                            ? "procprio"
                            : "memprio",
                        selection == SelectionRule::Random ? "random"
                                                           : "oldest",
                        organization == 0   ? "unbuf"
                        : organization == 1 ? "buf"
                                            : "buf_cap1",
                        p);
                    cases.emplace_back(label, cfg);
                }
            }
        }
    }
    {
        SystemConfig cfg = base;
        cfg.requestProbability = 0.5;
        cfg.workload.pattern = ReferencePattern::HotSpot;
        cfg.workload.hotFraction = 0.5;
        cfg.workload.hotModule = 1;
        cases.emplace_back("hotspot_h05_m1 p=0.5", cfg);
    }
    {
        SystemConfig cfg = base;
        cfg.requestProbability = 0.5;
        cfg.workload.pattern = ReferencePattern::Favorite;
        cfg.workload.favoriteFraction = 0.6;
        cases.emplace_back("favorite_f06 p=0.5", cfg);
    }

    std::vector<GoldenLine> computed;
    for (const auto &[key, cfg] : cases) {
        const Metrics metrics = runOnce(cfg);
        computed.push_back(
            {key + " completed", exact(metrics.completedRequests)});
        computed.push_back(
            {key + " issued", exact(metrics.issuedRequests)});
        computed.push_back(
            {key + " busBusy", exact(metrics.busBusyCycles)});
        computed.push_back({key + " ebw", exact(metrics.ebw)});
        computed.push_back(
            {key + " meanWait", exact(metrics.meanWaitCycles)});
    }
    checkExactGolden("kernel_metrics_faststat", computed);
}

} // namespace
} // namespace sbn
