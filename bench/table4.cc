/**
 * @file
 * Reproduces paper Table 4: EBW with priority to processors in the
 * BUFFERED system (Section 6), n = 8, m = 4..16, r = 6..24.
 *
 * Two Table 4 cells are OCR-damaged in the source text and restored
 * by row/column consistency: m=14 r=10 ("I867" -> 5.867) and m=14
 * r=12 ("6A78" -> 6.178).
 */

#include "bench_common.hh"

#include <algorithm>

namespace {

constexpr int kMs[7] = {4, 6, 8, 10, 12, 14, 16};
constexpr int kRs[10] = {6, 8, 10, 12, 14, 16, 18, 20, 22, 24};

constexpr double kPaper[7][10] = {
    {3.915, 3.938, 3.815, 3.731, 3.661, 3.617, 3.575, 3.541, 3.523, 3.499},
    {3.997, 4.747, 4.795, 4.734, 4.674, 4.630, 4.588, 4.560, 4.529, 4.506},
    {4.000, 4.943, 5.312, 5.312, 5.275, 5.239, 5.206, 5.180, 5.155, 5.136},
    {4.000, 4.984, 5.608, 5.724, 5.725, 5.709, 5.685, 5.666, 5.647, 5.633},
    {4.000, 4.994, 5.778, 5.987, 6.020, 6.019, 6.010, 5.997, 5.983, 5.970},
    {4.000, 4.998, 5.867, 6.178, 6.237, 6.246, 6.245, 6.232, 6.223, 6.217},
    {4.000, 4.999, 5.912, 6.325, 6.405, 6.428, 6.429, 6.421, 6.414, 6.410},
};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Table 4",
           "EBW, priority to processors, BUFFERED memory modules, "
           "n = 8, p = 1. Cells: paper / ours.");

    std::printf("  %-6s", "m \\ r");
    for (int r : kRs)
        std::printf("  %11d", r);
    std::printf("   (rows stream as they complete)\n");

    // One parallel streamed sweep over the m x r grid (modules outer,
    // ratios inner): each m row prints as soon as it and its
    // predecessors finish; the shape checks reuse the same grid.
    DiffTracker diff;
    SweepSpec spec;
    spec.base = simConfig(8, kMs[0], kRs[0],
                          ArbitrationPolicy::ProcessorPriority, true);
    spec.modules.assign(std::begin(kMs), std::end(kMs));
    spec.memoryRatios.assign(std::begin(kRs), std::end(kRs));
    const std::vector<double> grid = sweepEbw(
        spec, 10,
        [&](std::size_t i, const std::vector<double> &cells) {
            std::printf("  %-6d", kMs[i]);
            for (int j = 0; j < 10; ++j) {
                diff.add(kPaper[i][j], cells[j]);
                std::printf("  %5.3f/%5.3f", kPaper[i][j], cells[j]);
            }
            std::printf("\n");
            std::fflush(stdout);
        });
    diff.report("Table 4");

    std::printf("\nShape checks from Section 6:\n");
    // Look the cells up by their axis values so edits to kMs/kRs
    // cannot silently shift the check onto a different grid point.
    const auto cell = [&](int m, int r) {
        const auto mi = std::find(spec.modules.begin(),
                                  spec.modules.end(), m) -
                        spec.modules.begin();
        const auto ri = std::find(spec.memoryRatios.begin(),
                                  spec.memoryRatios.end(), r) -
                        spec.memoryRatios.begin();
        return grid[mi * spec.memoryRatios.size() + ri];
    };
    const double peak_r_small = cell(16, 12);
    const double tail_r_large = cell(16, 24);
    std::printf("  buffered EBW peaks at moderate r then decays toward"
                " the crossbar: ebw(r=12)=%.3f > ebw(r=24)=%.3f\n",
                peak_r_small, tail_r_large);
}

void
BM_BufferedSimulation(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    const int m = static_cast<int>(state.range(0));
    const int r = static_cast<int>(state.range(1));
    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            8, m, r, ArbitrationPolicy::ProcessorPriority, true);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 100000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
        cycles += cfg.warmupCycles + cfg.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BufferedSimulation)
    ->Args({4, 6})
    ->Args({16, 24})
    ->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
