/**
 * @file
 * The Classic-era kernel-differential grid, repointed at golden
 * files.
 *
 * Until the Classic kernel's retirement this suite ran every
 * configuration class under both kernels and asserted bit-identical
 * Metrics. The classic kernel is gone; the same grid now pins the
 * surviving kernel's absolute Metrics against
 * tests/golden/kernel_metrics_grid.txt (generated while the two
 * kernels were still provably identical, so the pinned values *are*
 * the Classic kernel's values for every configuration predating the
 * workload layer). Any RNG-stream reorder or grant-decision change
 * still fails here, per configuration class and counter. Each case
 * also pins the number of scheduled events the kernel executed, so a
 * driver that drops or double-runs an event kind fails here too.
 *
 * Regenerate after an intentional behavior change with
 * SBN_REGEN_GOLDEN=1 (see docs/testing.md).
 */

#include <gtest/gtest.h>

#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/faststat.hh"
#include "core/system.hh"
#include "golden_util.hh"

namespace {

/**
 * Counts the test binary's operator new calls on one thread while on
 * (KernelGridExtras.SteadyStateArbitrationDoesNotReallocate). The
 * replacement forwards every call to the next definition in the
 * process (the C++ runtime's, or a sanitizer's), so the sanitizer
 * builds keep their new/delete checks.
 */
struct AllocCounter
{
    std::atomic<bool> on{false};
    std::atomic<std::uint64_t> calls{0};
    pthread_t thread{};
};

AllocCounter gAllocCounter;

using OperatorNew = void *(*)(std::size_t);

OperatorNew
nextOperatorNew()
{
    static std::atomic<OperatorNew> next{nullptr};
    OperatorNew fn = next.load(std::memory_order_acquire);
    if (fn == nullptr) {
        // _Znwm is operator new(std::size_t) in the Itanium C++ ABI.
        fn = reinterpret_cast<OperatorNew>(dlsym(RTLD_NEXT, "_Znwm"));
        if (fn == nullptr)
            std::abort();
        next.store(fn, std::memory_order_release);
    }
    return fn;
}

} // namespace

void *
operator new(std::size_t size)
{
    if (gAllocCounter.on.load(std::memory_order_acquire) &&
        pthread_equal(gAllocCounter.thread, pthread_self()))
        gAllocCounter.calls.fetch_add(1, std::memory_order_relaxed);
    return nextOperatorNew()(size);
}

namespace sbn {
namespace {

using golden::GoldenLine;
using golden::checkExactGolden;
using golden::exact;

struct GridCase
{
    std::string name;
    SystemConfig config;
};

SystemConfig
diffBase()
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 8;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 30000;
    cfg.seed = 9001;
    cfg.collectLatency = true;
    return cfg;
}

std::vector<GridCase>
diffGrid()
{
    std::vector<GridCase> grid;

    // Full cross of organization x policy x selection at a moderate
    // request probability: every arbitration code path.
    for (bool buffered : {false, true}) {
        for (auto policy : {ArbitrationPolicy::ProcessorPriority,
                            ArbitrationPolicy::MemoryPriority}) {
            for (auto selection :
                 {SelectionRule::Random, SelectionRule::OldestFirst}) {
                SystemConfig cfg = diffBase();
                cfg.buffered = buffered;
                cfg.policy = policy;
                cfg.selection = selection;
                cfg.requestProbability = 0.4;
                grid.push_back(
                    {std::string(buffered ? "buf" : "unbuf") +
                         (policy == ArbitrationPolicy::ProcessorPriority
                              ? "_procprio"
                              : "_memprio") +
                         (selection == SelectionRule::Random ? "_random"
                                                             : "_fcfs"),
                     cfg});
            }
        }
    }

    // Low request probability: long think spans, the calendar's
    // heaviest regime (and the Fig. 2/3 sweep regime).
    for (double p : {0.02, 0.1}) {
        for (bool buffered : {false, true}) {
            SystemConfig cfg = diffBase();
            cfg.requestProbability = p;
            cfg.buffered = buffered;
            cfg.numProcessors = 12;
            cfg.numModules = 6;
            grid.push_back({"lowp_" + std::to_string(p).substr(0, 4) +
                                (buffered ? "_buf" : "_unbuf"),
                            cfg});
        }
    }

    // Saturation: every processor issues back to back.
    {
        SystemConfig cfg = diffBase();
        cfg.requestProbability = 1.0;
        cfg.numProcessors = 9;
        cfg.numModules = 3;
        grid.push_back({"saturated", cfg});
    }

    // Non-uniform module weights (hot module) with both selections -
    // these entries postdate the Classic kernel (the workload layer's
    // alias sampler defines their RNG consumption) and pin the
    // Weighted reference pattern.
    for (auto selection :
         {SelectionRule::Random, SelectionRule::OldestFirst}) {
        SystemConfig cfg = diffBase();
        cfg.numProcessors = 6;
        cfg.numModules = 4;
        cfg.requestProbability = 0.3;
        cfg.workload.pattern = ReferencePattern::Weighted;
        cfg.workload.moduleWeights = {4.0, 1.0, 1.0, 2.0};
        cfg.selection = selection;
        grid.push_back({std::string("weighted") +
                            (selection == SelectionRule::Random
                                 ? "_random"
                                 : "_fcfs"),
                        cfg});
    }

    // Finite buffer capacities: acceptance flips on queue occupancy
    // and output-blocked modules resume on response drain.
    {
        SystemConfig cfg = diffBase();
        cfg.buffered = true;
        cfg.inputCapacity = 2;
        cfg.outputCapacity = 1;
        cfg.numProcessors = 10;
        cfg.numModules = 3;
        cfg.requestProbability = 0.7;
        grid.push_back({"capacity_limited", cfg});
    }

    // Degenerate shapes and short memory: r = 1 makes completion and
    // transfer events collide on the same tick.
    {
        SystemConfig cfg = diffBase();
        cfg.numProcessors = 1;
        cfg.numModules = 5;
        cfg.memoryRatio = 1;
        cfg.requestProbability = 0.5;
        grid.push_back({"single_proc_r1", cfg});
    }
    // r = 1 with contention: a completion and a bus cycle due in the
    // same tick compete, so their relative order is pinned here.
    for (double p : {0.3, 1.0}) {
        for (bool buffered : {false, true}) {
            for (auto policy : {ArbitrationPolicy::ProcessorPriority,
                                ArbitrationPolicy::MemoryPriority}) {
                SystemConfig cfg = diffBase();
                cfg.numProcessors = 6;
                cfg.numModules = 3;
                cfg.memoryRatio = 1;
                cfg.requestProbability = p;
                cfg.buffered = buffered;
                cfg.policy = policy;
                grid.push_back(
                    {"r1_p" + std::to_string(p).substr(0, 3) +
                         (buffered ? "_buf" : "_unbuf") +
                         (policy == ArbitrationPolicy::ProcessorPriority
                              ? "_procprio"
                              : "_memprio"),
                     cfg});
            }
        }
    }
    {
        SystemConfig cfg = diffBase();
        cfg.numProcessors = 6;
        cfg.numModules = 3;
        cfg.memoryRatio = 1;
        cfg.requestProbability = 0.7;
        cfg.buffered = true;
        cfg.inputCapacity = 1;
        cfg.outputCapacity = 1;
        cfg.selection = SelectionRule::OldestFirst;
        grid.push_back({"r1_capacity_limited", cfg});
    }
    {
        SystemConfig cfg = diffBase();
        cfg.numProcessors = 7;
        cfg.numModules = 1;
        cfg.memoryRatio = 2;
        cfg.requestProbability = 0.8;
        cfg.policy = ArbitrationPolicy::MemoryPriority;
        grid.push_back({"single_module_memprio", cfg});
    }

    // Silent system: p = 0 exercises the calendar with no RNG at all.
    {
        SystemConfig cfg = diffBase();
        cfg.requestProbability = 0.0;
        cfg.measureCycles = 5000;
        grid.push_back({"silent", cfg});
    }

    // Processor cycle > 63 ticks: the think calendar's bitmask cannot
    // represent the buckets, forcing the linear-scan fallback.
    {
        SystemConfig cfg = diffBase();
        cfg.memoryRatio = 70;
        cfg.numProcessors = 5;
        cfg.numModules = 4;
        cfg.requestProbability = 0.2;
        grid.push_back({"wide_cycle_mask_fallback", cfg});
    }

    return grid;
}

TEST(KernelGrid, PinnedClassicEraGrid)
{
    std::vector<GoldenLine> computed;
    for (const GridCase &c : diffGrid()) {
        SingleBusSystem system(c.config);
        const Metrics metrics = system.run();
        computed.push_back(
            {c.name + " completed", exact(metrics.completedRequests)});
        computed.push_back(
            {c.name + " issued", exact(metrics.issuedRequests)});
        computed.push_back(
            {c.name + " busBusy", exact(metrics.busBusyCycles)});
        computed.push_back({c.name + " ebw", exact(metrics.ebw)});
        computed.push_back(
            {c.name + " meanWait", exact(metrics.meanWaitCycles)});
        computed.push_back({c.name + " waitVar",
                            exact(metrics.waitStats.variance())});
        if (metrics.latencyResidence.has_value())
            computed.push_back(
                {c.name + " histCount",
                 exact(metrics.latencyResidence->count())});
        computed.push_back(
            {c.name + " events", exact(system.heapEventsExecuted())});
    }
    checkExactGolden("kernel_metrics_grid", computed);
}

/** Same config + seed must reproduce Metrics exactly, field by field. */
TEST(KernelGrid, RunsAreDeterministic)
{
    for (const GridCase &c : diffGrid()) {
        const Metrics a = runOnce(c.config);
        const Metrics b = runOnce(c.config);
        EXPECT_EQ(a.completedRequests, b.completedRequests) << c.name;
        EXPECT_EQ(a.busBusyCycles, b.busBusyCycles) << c.name;
        EXPECT_EQ(a.ebw, b.ebw) << c.name;
        EXPECT_EQ(a.meanWaitCycles, b.meanWaitCycles) << c.name;
        EXPECT_EQ(a.perProcessorCompletions, b.perProcessorCompletions)
            << c.name;
    }
}

/**
 * The cycle-skipping calendar's reason to exist: in the low-p regime
 * thinking must not cost scheduled events. The bound (0.5 events/cycle)
 * is ~40% above the measured 0.36 for this shape; the Classic kernel
 * sat at ~2 events/cycle.
 */
TEST(KernelGridExtras, LowPHeapEventsStaySparse)
{
    SystemConfig cfg = diffBase();
    cfg.requestProbability = 0.05;
    cfg.numProcessors = 16;
    cfg.numModules = 16;
    cfg.warmupCycles = 0;
    cfg.measureCycles = 50000;

    SingleBusSystem system(cfg);
    (void)system.run();

    EXPECT_GT(system.thinkDraws(), 0u);
    const double events_per_cycle =
        static_cast<double>(system.heapEventsExecuted()) /
        static_cast<double>(cfg.measureCycles);
    EXPECT_LT(events_per_cycle, 0.5);
}

/** operator new calls made by @p fn on this thread. */
template <typename Fn>
std::uint64_t
allocationsIn(Fn &&fn)
{
    gAllocCounter.thread = pthread_self();
    gAllocCounter.calls.store(0, std::memory_order_relaxed);
    gAllocCounter.on.store(true, std::memory_order_release);
    fn();
    gAllocCounter.on.store(false, std::memory_order_release);
    return gAllocCounter.calls.load(std::memory_order_relaxed);
}

/** operator new calls inside one run() of @p cfg's kernel. */
std::uint64_t
runAllocations(const SystemConfig &cfg)
{
    if (cfg.kernel == KernelKind::FastStat) {
        FastStatSystem system(cfg);
        return allocationsIn([&] { (void)system.run(); });
    }
    SingleBusSystem system(cfg);
    return allocationsIn([&] { (void)system.run(); });
}

TEST(KernelGridExtras, SteadyStateArbitrationDoesNotReallocate)
{
    // Both kernels, every organization (unbuffered, unbounded buffers,
    // finite buffers), per-module and latency collection off and on:
    // the operator new calls inside run() are the fixed cost of its
    // Metrics, so a ten times longer window makes no more of them. A
    // container that grows, or a queue that allocates per request,
    // adds calls in proportion to the window.
    for (KernelKind kernel : {KernelKind::CycleSkip, KernelKind::FastStat}) {
        for (int organization = 0; organization < 3; ++organization) {
            for (bool collect : {false, true}) {
                SystemConfig cfg = diffBase();
                cfg.kernel = kernel;
                cfg.buffered = organization != 0;
                if (organization == 2) {
                    cfg.inputCapacity = 2;
                    cfg.outputCapacity = 1;
                }
                cfg.requestProbability = 0.6;
                cfg.numProcessors = 24;
                cfg.numModules = 6;
                cfg.collectPerModule = collect;
                cfg.collectLatency = collect;

                cfg.measureCycles = 20000;
                const std::uint64_t short_run = runAllocations(cfg);
                cfg.measureCycles = 200000;
                const std::uint64_t long_run = runAllocations(cfg);
                EXPECT_EQ(short_run, long_run)
                    << "allocations grew with the window (kernel="
                    << (kernel == KernelKind::FastStat ? "faststat"
                                                       : "cycleskip")
                    << " organization=" << organization
                    << " collect=" << collect << ")";
            }
        }
    }
}

} // namespace
} // namespace sbn
