/**
 * @file
 * Performance benchmarks of the library itself (not a paper artifact):
 * simulator event throughput across system shapes and analytic-model
 * solve times. Regressions here mean the reproduction benches get
 * slower to run.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "analytic/crossbar.hh"
#include "analytic/occupancy_chain.hh"
#include "analytic/procprio.hh"
#include "baselines/multibus_sim.hh"
#include "core/faststat.hh"
#include "core/system.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"

namespace {

/**
 * One kernel throughput measurement: wall time, scheduled events and
 * derived cycles/s for a config, for both the exact CycleSkip kernel
 * and the statistical FastStat kernel, plus FastStat's wall time with
 * latency histograms on (config.collectLatency).
 */
struct KernelSample
{
    std::string name;
    sbn::SystemConfig config;
    double seconds = 0.0;
    std::uint64_t events = 0;
    double ebw = 0.0;
    double faststatSeconds = 0.0;
    double faststatEbw = 0.0;
    double faststatLatencySeconds = 0.0;

    double
    eventsPerCycle() const
    {
        return static_cast<double>(events) /
               static_cast<double>(config.warmupCycles +
                                   config.measureCycles);
    }

    double
    faststatSpeedup() const
    {
        return faststatSeconds > 0.0 ? seconds / faststatSeconds
                                     : 0.0;
    }

    /** FastStat's extra wall time with latency on, as a fraction. */
    double
    latencyCost() const
    {
        return faststatSeconds > 0.0
                   ? faststatLatencySeconds / faststatSeconds - 1.0
                   : 0.0;
    }
};

/**
 * Interleave repetitions of the two kernels, and of FastStat with
 * latency on, and keep the fastest wall time of each. Shared-host
 * noise inflates every run together, so alternating reps and taking
 * per-kernel minima makes the reported speedup and latency cost far
 * more stable than a single back-to-back pair of runs.
 */
KernelSample
measureKernel(std::string name, sbn::SystemConfig cfg)
{
    using clock = std::chrono::steady_clock;
    constexpr int kReps = 3;
    KernelSample sample;
    sample.name = std::move(name);
    sample.seconds = std::numeric_limits<double>::infinity();
    sample.faststatSeconds = std::numeric_limits<double>::infinity();
    sample.faststatLatencySeconds =
        std::numeric_limits<double>::infinity();

    for (int rep = 0; rep < kReps; ++rep) {
        {
            cfg.kernel = sbn::KernelKind::CycleSkip;
            sbn::SingleBusSystem system(cfg);
            const auto t0 = clock::now();
            const sbn::Metrics metrics = system.run();
            const double s =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            if (s < sample.seconds) {
                sample.seconds = s;
                sample.events = system.heapEventsExecuted();
            }
            sample.ebw = metrics.ebw;
        }
        for (const bool latency : {false, true}) {
            cfg.kernel = sbn::KernelKind::FastStat;
            cfg.collectLatency = latency;
            sbn::FastStatSystem system(cfg);
            const auto t0 = clock::now();
            const sbn::Metrics metrics = system.run();
            const double s =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            double &best = latency ? sample.faststatLatencySeconds
                                   : sample.faststatSeconds;
            best = std::min(best, s);
            if (!latency)
                sample.faststatEbw = metrics.ebw;
        }
        cfg.collectLatency = false;
    }
    cfg.kernel = sbn::KernelKind::CycleSkip;
    sample.config = cfg;
    return sample;
}

void
writeKernelJson(const std::vector<KernelSample> &samples,
                const char *path)
{
    std::ofstream out(path);
    if (!out) {
        std::printf("warning: could not write %s\n", path);
        return;
    }
    out << "{\n  \"benchmark\": \"kernel\",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const KernelSample &s = samples[i];
        const auto cycles =
            s.config.warmupCycles + s.config.measureCycles;
        out << "    {\n"
            << "      \"name\": \"" << s.name << "\",\n"
            << "      \"n\": " << s.config.numProcessors << ",\n"
            << "      \"m\": " << s.config.numModules << ",\n"
            << "      \"r\": " << s.config.memoryRatio << ",\n"
            << "      \"p\": " << s.config.requestProbability << ",\n"
            << "      \"buffered\": "
            << (s.config.buffered ? "true" : "false") << ",\n"
            << "      \"cycles\": " << cycles << ",\n"
            << "      \"ebw\": " << s.ebw << ",\n"
            << "      \"cycleskip\": {\"wall_s\": " << s.seconds
            << ", \"heap_events\": " << s.events
            << ", \"events_per_cycle\": " << s.eventsPerCycle()
            << ", \"cycles_per_s\": "
            << static_cast<double>(cycles) / s.seconds << "},\n"
            << "      \"faststat\": {\"wall_s\": " << s.faststatSeconds
            << ", \"latency_wall_s\": " << s.faststatLatencySeconds
            << ", \"ebw\": " << s.faststatEbw
            << ", \"cycles_per_s\": "
            << static_cast<double>(cycles) / s.faststatSeconds
            << ", \"speedup\": " << s.faststatSpeedup() << "}\n"
            << "    }" << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path);
}

/**
 * Kernel throughput over the regimes the paper sweeps live in (low
 * request probability = long think spans), a saturated point, and a
 * hot-spot workload point, for both the exact CycleSkip kernel and
 * the statistical FastStat kernel, and FastStat's latency-collection
 * cost (latency_wall_s, not gated). Prints a table and writes a
 * machine-readable BENCH_kernel.json (path overridable via the
 * SBN_BENCH_KERNEL_JSON environment variable) so CI can track both
 * kernels' perf trajectories per PR. The Classic reference kernel is
 * retired; tools/check_bench_trend.py now normalizes by a reference
 * sample or the same run's median cycles/s to cancel machine speed
 * (see --normalize-by).
 */
void
runKernelComparison()
{
    using namespace sbn;
    using namespace sbn::bench;

    auto cfg = [](int n, int m, int r, double p, bool buffered) {
        SystemConfig c = simConfig(
            n, m, r, ArbitrationPolicy::ProcessorPriority, buffered, p);
        c.warmupCycles = 10000;
        c.measureCycles = 1000000;
        c.seed = 20260727;
        return c;
    };

    std::vector<KernelSample> samples;
    samples.push_back(
        measureKernel("fig2_lowp_n16", cfg(16, 16, 8, 0.05, false)));
    samples.push_back(
        measureKernel("fig3_lowp_n8", cfg(8, 8, 8, 0.1, false)));
    samples.push_back(
        measureKernel("lowp_buffered_n16", cfg(16, 16, 8, 0.1, true)));
    samples.push_back(
        measureKernel("lowp_wide_n32", cfg(32, 32, 8, 0.05, true)));
    samples.push_back(
        measureKernel("saturated_n8", cfg(8, 8, 8, 1.0, false)));
    {
        SystemConfig hot = cfg(8, 8, 8, 1.0, false);
        hot.workload.pattern = ReferencePattern::HotSpot;
        hot.workload.hotFraction = 0.5;
        samples.push_back(measureKernel("hotspot_h05_n8", hot));
    }

    std::printf("Kernel throughput (cycleskip vs faststat), %s:\n",
                "1.01M cycles per run, best of 3 interleaved reps");
    std::printf("%-20s %9s %11s %11s %8s %8s %8s\n", "config", "ev/cyc",
                "cs Mcyc/s", "fs Mcyc/s", "speedup", "fs +lat", "ebw");
    for (const KernelSample &s : samples) {
        const auto cycles = static_cast<double>(
            s.config.warmupCycles + s.config.measureCycles);
        std::printf("%-20s %9.3f %11.1f %11.1f %7.2fx %+7.1f%% %8.3f\n",
                    s.name.c_str(), s.eventsPerCycle(),
                    cycles / s.seconds / 1e6,
                    cycles / s.faststatSeconds / 1e6,
                    s.faststatSpeedup(), 100.0 * s.latencyCost(), s.ebw);
    }
    std::printf("fs +lat: FastStat's extra wall time with latency "
                "histograms on (config.collectLatency).\n");
    std::printf("\n");

    const char *path = std::getenv("SBN_BENCH_KERNEL_JSON");
    writeKernelJson(samples, path != nullptr ? path
                                             : "BENCH_kernel.json");
}

void
printReproduction()
{
    sbn::bench::banner(
        "Library performance",
        "Not a paper artifact: throughput/latency of the simulator, "
        "kernel and solvers.");
    runKernelComparison();
}

void
BM_SimulatorThroughput(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    const bool buffered = state.range(2) != 0;
    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            n, m, 8, ArbitrationPolicy::ProcessorPriority, buffered);
        cfg.warmupCycles = 0;
        cfg.measureCycles = 200000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
        cycles += cfg.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)
    ->Args({4, 4, 0})
    ->Args({8, 16, 0})
    ->Args({8, 16, 1})
    ->Args({32, 32, 0})
    ->Args({32, 32, 1})
    ->Unit(benchmark::kMillisecond);

/**
 * Low-request-probability regime (the Fig. 2/3 sweeps): most cycles
 * are think cycles, so this is where the cycle-skipping calendar's
 * event-count reduction pays.
 */
void
BM_SimulatorLowP(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            16, 16, 8, ArbitrationPolicy::ProcessorPriority, false,
            0.05);
        cfg.warmupCycles = 0;
        cfg.measureCycles = 200000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
        cycles += cfg.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorLowP)->Unit(benchmark::kMillisecond);

/**
 * Parallel sweep throughput at 1 / 2 / hardware threads: the same
 * 16-point r x policy grid per iteration, fanned out by
 * ParallelRunner. cycles/s counters across the Arg(threads) rows give
 * the execution layer's scaling curve on this machine.
 */
void
BM_ParallelSweepScaling(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    const auto threads = static_cast<unsigned>(state.range(0));
    ParallelRunner runner(threads);

    SweepSpec spec;
    spec.base = simConfig(8, 8, 2,
                          ArbitrationPolicy::ProcessorPriority, false);
    spec.base.warmupCycles = 0;
    spec.base.measureCycles = 50000;
    spec.memoryRatios = {2, 4, 6, 8, 10, 12, 14, 16};
    spec.policies = {ArbitrationPolicy::ProcessorPriority,
                     ArbitrationPolicy::MemoryPriority};

    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        spec.base.seed = seed++;
        const std::vector<SystemConfig> points = spec.materialize();
        const auto grid = runner.map<double>(
            points.size(), [&](std::size_t i) { return runEbw(points[i]); });
        benchmark::DoNotOptimize(grid.data());
        cycles += spec.size() * spec.base.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelSweepScaling)
    ->Apply([](benchmark::internal::Benchmark *bench) {
        bench->Arg(1)->Arg(2);
        const auto hw =
            static_cast<std::int64_t>(sbn::hardwareThreads());
        if (hw > 2)
            bench->Arg(hw);
    })
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void
BM_OccupancyChainBuild(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sbn::OccupancyChain chain(n, n, n);
        benchmark::DoNotOptimize(chain.solve().meanBusy);
    }
}
BENCHMARK(BM_OccupancyChainBuild)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_ProcPrioChainBuild(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sbn::ProcPrioChain chain(8, m, 12);
        benchmark::DoNotOptimize(chain.ebw());
    }
}
BENCHMARK(BM_ProcPrioChainBuild)->Arg(8)->Arg(16);

void
BM_BaselineCrossbarSim(benchmark::State &state)
{
    std::uint64_t slots = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sbn::runCrossbarSim(16, 16, 1.0, seed++, 0, 100000));
        slots += 100000;
    }
    state.counters["slots/s"] = benchmark::Counter(
        static_cast<double>(slots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BaselineCrossbarSim)->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
