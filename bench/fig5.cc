/**
 * @file
 * Reproduces paper Figure 5: EBW vs r with and without memory-module
 * buffers (n x m in {16x16, 8x16, 8x8}), against the crossbar lines
 * (16x16 and 8x8).
 *
 * Shape properties from Section 6:
 *  - buffered EBW >= unbuffered EBW everywhere;
 *  - the buffered single bus EXCEEDS the non-buffered crossbar in the
 *    mid-r range (memory interference is reduced by the buffers);
 *  - as r grows the buffered EBW decays toward the crossbar value
 *    (the bus stops being the binding resource);
 *  - the buffered system stays saturated (EBW = (r+2)/2) until r
 *    approaches min(n, m).
 */

#include "bench_common.hh"

#include "analytic/crossbar.hh"

namespace {

struct Config
{
    int n, m;
};
constexpr Config kConfigs[] = {{16, 16}, {8, 16}, {8, 8}};
constexpr int kRs[] = {2, 4, 6, 8, 10, 12, 14, 16, 20, 24};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Figure 5",
           "EBW vs r: buffered vs unbuffered single bus (priority to "
           "processors, p = 1)\nwith crossbar (cycle (r+2)t) lines.");

    for (const auto &[n, m] : kConfigs) {
        const double xbar = crossbarEbw(n, m);
        std::printf("%dx%d (crossbar EBW = %.3f)\n", n, m, xbar);
        std::printf("  %4s  %9s  %10s  %9s  %8s\n", "r", "buffered",
                    "unbuffered", "crossbar", "(r+2)/2");

        // One parallel streamed sweep per panel (r outer, buffering
        // inner): rows print progressively; the crossing summary
        // below reuses the same grid instead of re-simulating every
        // buffered point.
        SweepSpec spec;
        spec.base = simConfig(n, m, kRs[0],
                              ArbitrationPolicy::ProcessorPriority,
                              false);
        spec.memoryRatios.assign(std::begin(kRs), std::end(kRs));
        spec.buffering = {true, false};
        const std::vector<double> grid = sweepEbw(
            spec, 2,
            [&](std::size_t row, const std::vector<double> &cells) {
                std::printf("  %4d  %9.3f  %10.3f  %9.3f  %8.1f\n",
                            kRs[row], cells[0], cells[1], xbar,
                            (kRs[row] + 2) / 2.0);
                std::fflush(stdout);
            });

        // Crossing summary: where does the buffered bus beat the
        // crossbar?
        int first_beat = -1, last_beat = -1;
        for (std::size_t i = 0; i < std::size(kRs); ++i) {
            if (grid[2 * i] > xbar) {
                if (first_beat < 0)
                    first_beat = kRs[i];
                last_beat = kRs[i];
            }
        }
        if (first_beat >= 0) {
            std::printf("  buffered bus exceeds the %dx%d crossbar for "
                        "r in ~[%d, %d]\n\n",
                        n, m, first_beat, last_beat);
        } else {
            std::printf("  buffered bus never exceeds the %dx%d "
                        "crossbar on this grid\n\n",
                        n, m);
        }
    }
}

void
BM_Fig5Point(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg =
            simConfig(16, 16, static_cast<int>(state.range(0)),
                      ArbitrationPolicy::ProcessorPriority, true);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 50000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
    }
}
BENCHMARK(BM_Fig5Point)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
