/**
 * @file
 * Ablation studies over the design choices docs/design.md,
 * "Ablations", calls out.
 * These go beyond the paper's published grids:
 *
 *  A1. arbitration tie-break: random (paper hypothesis (h)) vs
 *      oldest-first - EBW is insensitive, fairness improves slightly.
 *  A2. buffer depth: input capacity 1/2/4/unbounded - how much of the
 *      Section 6 gain small real SRAM buffers already capture.
 *  A3. output buffer depth: 1 vs unbounded (blocking effects).
 *  A4. policy x buffering matrix at a reference point.
 *  A5. non-uniform (hot-spot) reference extension: EBW degradation as
 *      one module receives a growing share of the traffic, buffered
 *      vs not (the paper assumes uniform reference, hypothesis (e)).
 */

#include "bench_common.hh"

#include <numeric>

namespace {

void
printReproduction()
{
    using namespace sbn;
    using namespace sbn::bench;

    banner("Ablations",
           "Design-choice studies beyond the paper's grids "
           "(n = 8, m = 8, r = 8 reference point unless noted).");

    // ---- A1: tie-break rule ------------------------------------------
    {
        TextTable table("A1. arbitration tie-break (n=8, m=8, r=8, "
                        "unbuffered, proc priority)");
        table.setHeader({"rule", "EBW", "mean wait", "max-min proc "
                         "completions"});
        for (auto rule : {SelectionRule::Random,
                          SelectionRule::OldestFirst}) {
            SystemConfig cfg = simConfig(
                8, 8, 8, ArbitrationPolicy::ProcessorPriority, false);
            cfg.selection = rule;
            const Metrics m = runOnce(cfg);
            std::uint64_t lo = m.perProcessorCompletions[0];
            std::uint64_t hi = lo;
            for (auto c : m.perProcessorCompletions) {
                lo = std::min(lo, c);
                hi = std::max(hi, c);
            }
            table.addRow({rule == SelectionRule::Random ? "random"
                                                        : "oldest-first",
                          TextTable::formatNumber(m.ebw, 3),
                          TextTable::formatNumber(m.meanWaitCycles, 2),
                          std::to_string(hi - lo)});
        }
        table.print(std::cout);
    }

    // ---- A2: input buffer depth ---------------------------------------
    {
        TextTable table("\nA2. input buffer depth (n=8, m=4, r=12, "
                        "buffered, proc priority)");
        table.setHeader({"input capacity", "EBW", "% of unbounded gain"});
        SystemConfig base = simConfig(
            8, 4, 12, ArbitrationPolicy::ProcessorPriority, false);
        const double plain = runEbw(base);
        base.buffered = true;
        const double unbounded = runEbw(base);
        for (int cap : {1, 2, 4, 0}) {
            SystemConfig cfg = base;
            cfg.inputCapacity = cap;
            const double e = runEbw(cfg);
            const double share =
                (e - plain) / std::max(unbounded - plain, 1e-9);
            table.addRow({cap == 0 ? "unbounded" : std::to_string(cap),
                          TextTable::formatNumber(e, 3),
                          TextTable::formatNumber(100.0 * share, 1)});
        }
        table.print(std::cout);
        std::printf("unbuffered reference EBW = %.3f\n", plain);
    }

    // ---- A3: output buffer depth --------------------------------------
    {
        TextTable table("\nA3. output buffer depth (n=8, m=4, r=8)");
        table.setHeader({"output capacity", "EBW"});
        for (int cap : {1, 2, 0}) {
            SystemConfig cfg = simConfig(
                8, 4, 8, ArbitrationPolicy::ProcessorPriority, true);
            cfg.outputCapacity = cap;
            table.addRow({cap == 0 ? "unbounded" : std::to_string(cap),
                          TextTable::formatNumber(runEbw(cfg), 3)});
        }
        table.print(std::cout);
    }

    // ---- A4: policy x buffering ---------------------------------------
    {
        TextTable table("\nA4. policy x buffering EBW (n=8, m=8, r=8)");
        table.setHeader({"", "unbuffered", "buffered"});
        for (auto policy : {ArbitrationPolicy::ProcessorPriority,
                            ArbitrationPolicy::MemoryPriority}) {
            std::vector<std::string> row{
                policy == ArbitrationPolicy::ProcessorPriority
                    ? "proc priority (g')"
                    : "mem priority (g'')"};
            for (bool buffered : {false, true})
                row.push_back(TextTable::formatNumber(
                    ebw(8, 8, 8, policy, buffered), 3));
            table.addRow(row);
        }
        table.print(std::cout);
    }

    // ---- A5: hot-spot reference ---------------------------------------
    {
        TextTable table("\nA5. hot-spot traffic (n=8, m=8, r=8): one "
                        "module weighted w, others 1");
        table.setHeader({"hot weight", "unbuffered EBW", "buffered EBW"});
        constexpr double kHotWeights[] = {1.0, 2.0, 4.0, 8.0};
        std::vector<SystemConfig> points;
        for (double w : kHotWeights) {
            std::vector<double> weights(8, 1.0);
            weights[0] = w;
            SystemConfig plain = simConfig(
                8, 8, 8, ArbitrationPolicy::ProcessorPriority, false);
            plain.workload.pattern = ReferencePattern::Weighted;
            plain.workload.moduleWeights = weights;
            SystemConfig buf = plain;
            buf.buffered = true;
            points.push_back(plain);
            points.push_back(buf);
        }
        const std::vector<double> results = sweepEbw(points);
        for (std::size_t i = 0; i < std::size(kHotWeights); ++i)
            table.addNumericRow(
                TextTable::formatNumber(kHotWeights[i], 0),
                {results[2 * i], results[2 * i + 1]});
        table.print(std::cout);
        std::printf("hot-spotting degrades both organizations; "
                    "buffering keeps an edge but cannot\nremove "
                    "serialization at the hot module (extension beyond "
                    "paper hypothesis (e)).\n");
    }
}

void
BM_AblationPoint(benchmark::State &state)
{
    using namespace sbn;
    using namespace sbn::bench;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        SystemConfig cfg = simConfig(
            8, 8, 8, ArbitrationPolicy::ProcessorPriority, true);
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 50000;
        cfg.seed = seed++;
        benchmark::DoNotOptimize(runEbw(cfg));
    }
}
BENCHMARK(BM_AblationPoint)->Unit(benchmark::kMillisecond);

} // namespace

SBN_BENCH_MAIN(printReproduction)
