/**
 * @file
 * Reproduces paper Table 3: EBW with priority to processors, n = 8,
 * m = 4..16, r = 2..12.
 *
 *   (a) simulation        -> our cycle-accurate simulator
 *   (b) approximate model -> our Section 4 reduced Markov chain
 *
 * The chain's P1/P2 formulas are re-derived from their verbal
 * definitions (the printed expressions are OCR-degraded);
 * docs/design.md, "Section 4 chain", explains them and
 * tests/test_procprio.cc pins the validation bands.
 */

#include "bench_common.hh"

#include "analytic/procprio.hh"

namespace {

constexpr int kMs[7] = {4, 6, 8, 10, 12, 14, 16};
constexpr int kRs[6] = {2, 4, 6, 8, 10, 12};

// Paper Table 3a (simulation). The m=4, r=8 cell (3.287) is
// inconsistent with its own row neighbours; kept as printed.
constexpr double kPaper3a[7][6] = {
    {1.998, 2.867, 3.155, 3.287, 3.205, 3.220},
    {2.000, 2.986, 3.766, 4.033, 4.083, 4.117},
    {2.000, 2.999, 3.934, 4.523, 4.650, 4.722},
    {2.000, 3.000, 3.983, 4.766, 5.102, 5.144},
    {2.000, 3.000, 3.996, 4.878, 5.367, 5.464},
    {2.000, 3.000, 4.000, 4.947, 5.569, 5.732},
    {2.000, 3.000, 4.000, 4.977, 5.698, 5.959},
};

// Paper Table 3b (approximate model; the printed m=6, r=8 cell 2.854
// is an evident typo for 3.854).
constexpr double kPaper3b[7][6] = {
    {1.994, 2.727, 2.992, 3.089, 3.133, 3.156},
    {1.999, 2.956, 3.582, 3.854, 3.973, 4.033},
    {2.000, 2.994, 3.848, 4.344, 4.577, 4.692},
    {2.000, 2.999, 3.947, 4.633, 5.000, 5.184},
    {2.000, 2.999, 3.981, 4.794, 5.288, 5.546},
    {2.000, 3.000, 3.992, 4.880, 5.480, 5.810},
    {2.000, 3.000, 3.997, 4.927, 5.608, 6.000},
};

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Table 3",
           "EBW with priority to processors, n = 8, p = 1.\n"
           "(a) simulation; (b) reduced Markov chain. "
           "Cells: paper / ours.");

    std::vector<std::string> header{"m \\ r"};
    for (int r : kRs)
        header.push_back(std::to_string(r));

    {
        std::printf("(a) simulation (rows stream as they complete)\n");
        std::printf("  %-6s", "m \\ r");
        for (int r : kRs)
            std::printf("  %13d", r);
        std::printf("\n");

        // The whole m x r simulation grid as one parallel streamed
        // sweep (modules outer, ratios inner): each m row prints as
        // soon as its six cells - and all earlier rows - finish.
        DiffTracker diff;
        SweepSpec spec;
        spec.base = simConfig(8, kMs[0], kRs[0],
                              ArbitrationPolicy::ProcessorPriority,
                              false);
        spec.modules.assign(std::begin(kMs), std::end(kMs));
        spec.memoryRatios.assign(std::begin(kRs), std::end(kRs));
        sweepEbw(
            spec, 6,
            [&](std::size_t i, const std::vector<double> &cells) {
                std::printf("  %-6d", kMs[i]);
                for (int j = 0; j < 6; ++j) {
                    diff.add(kPaper3a[i][j], cells[j]);
                    std::printf("  %6.3f/%6.3f", kPaper3a[i][j],
                                cells[j]);
                }
                std::printf("\n");
                std::fflush(stdout);
            });
        diff.report("Table 3a");
    }

    std::printf("\n");
    {
        TextTable table("(b) approximate model (reduced Markov chain)");
        table.setHeader(header);
        DiffTracker diff;

        // Chain solves are independent too; fan them out by index.
        const std::vector<double> model = runner().map<double>(
            7 * 6, [](std::size_t cell) {
                ProcPrioChain chain(8, kMs[cell / 6], kRs[cell % 6]);
                return chain.ebw();
            });

        for (int i = 0; i < 7; ++i) {
            std::vector<std::string> row{std::to_string(kMs[i])};
            for (int j = 0; j < 6; ++j) {
                diff.add(kPaper3b[i][j], model[i * 6 + j]);
                row.push_back(
                    TextTable::formatNumber(kPaper3b[i][j], 3) + " / " +
                    TextTable::formatNumber(model[i * 6 + j], 3));
            }
            table.addRow(row);
        }
        table.print(std::cout);
        diff.report("Table 3b");
        std::printf("note: the worst 3b cells are the m=4 tail, where "
                    "the paper's own model deviates 5-7%% from its\n"
                    "simulation in the opposite direction; against "
                    "Table 3a our chain stays within 7%% everywhere.\n");
    }
}

void
BM_SingleBusSimulation(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    const int m = static_cast<int>(state.range(0));
    const int r = static_cast<int>(state.range(1));
    std::uint64_t cycles = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            8, m, r, ArbitrationPolicy::ProcessorPriority, false);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 100000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
        cycles += cfg.warmupCycles + cfg.measureCycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleBusSimulation)
    ->Args({4, 2})
    ->Args({16, 12})
    ->Unit(benchmark::kMillisecond);

void
BM_ProcPrioChainSolve(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sbn::ProcPrioChain chain(8, m, 12);
        benchmark::DoNotOptimize(chain.ebw());
    }
}
BENCHMARK(BM_ProcPrioChainSolve)->Arg(4)->Arg(16);

} // namespace

SBN_BENCH_MAIN(printReproduction)
