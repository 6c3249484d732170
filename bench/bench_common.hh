/**
 * @file
 * Shared scaffolding for the reproduction benchmarks.
 *
 * Every binary in bench/ regenerates one table or figure from the
 * paper: it first prints the paper's numbers next to ours (shape
 * comparison), then runs google-benchmark timings for the kernels
 * involved. Binaries accept google-benchmark's usual flags; pass
 * --benchmark_filter=none to skip timings and only print the
 * reproduction.
 */

#ifndef SBN_BENCH_BENCH_COMMON_HH
#define SBN_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/experiment.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "service/sweeprun.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace sbn::bench {

/** Print the banner identifying the reproduced artifact. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::printf("\n================================================"
                "====================\n");
    std::printf("Reproduction: %s\n%s\n", artifact.c_str(),
                description.c_str());
    std::printf("=================================================="
                "==================\n\n");
}

/** Standard simulation config used by the reproduction benches. */
inline SystemConfig
simConfig(int n, int m, int r, ArbitrationPolicy policy, bool buffered,
          double p = 1.0)
{
    SystemConfig cfg;
    cfg.numProcessors = n;
    cfg.numModules = m;
    cfg.memoryRatio = r;
    cfg.requestProbability = p;
    cfg.policy = policy;
    cfg.buffered = buffered;
    cfg.warmupCycles = 20000;
    cfg.measureCycles = 400000;
    cfg.seed = 20260611;
    return cfg;
}

/** Shorthand: run one config and return EBW. */
inline double
ebw(int n, int m, int r, ArbitrationPolicy policy, bool buffered,
    double p = 1.0)
{
    return runEbw(simConfig(n, m, r, policy, buffered, p));
}

/**
 * Shared parallel runner for the reproduction benches, sized to the
 * hardware: the grid points behind every figure/table are independent
 * seeded runs, so they fan out across all cores without changing any
 * printed number. This is the pool the sweep helpers below run on.
 */
inline ParallelRunner &
runner()
{
    return sharedParallelRunner(0);
}

/**
 * Sharded bench execution (see docs/sharding.md). Every fig/table
 * binary accepts, in addition to the google-benchmark flags:
 *
 *   --shard=i/N        run only shard i of N of each sweep grid,
 *                      appending JSONL records per completed point
 *   --shard-dir=DIR    record directory (default bench-shards)
 *   --shard-layout=L   contiguous (default) or strided
 *   --shard-resume     skip points with matching records on disk
 *
 * In shard mode the sweep helpers below compute only the shard's
 * points (values at other grid cells print as nan) and write each
 * sweep's records to DIR/<bench>-sweep<k>-shard-i-of-N.jsonl, where
 * k counts the binary's sweeps in issue order. Merge one sweep's
 * files with `sbn_sweep --merge --size=<grid> --files=a,b,...` or
 * the shard library. Values are bit-identical to the unsharded
 * run's.
 */
struct ShardMode
{
    bool active = false;
    ShardSpec shard;
    ShardLayout layout = ShardLayout::Contiguous;
    std::string dir = "bench-shards";
    bool resume = false;
    std::string benchName = "bench";
    unsigned sweepCounter = 0;

    /** Record path of the next sweep this binary issues. */
    std::string
    nextPath()
    {
        return dir + "/" + benchName + "-sweep" +
               std::to_string(sweepCounter++) + "-shard-" +
               std::to_string(shard.index) + "-of-" +
               std::to_string(shard.count) + ".jsonl";
    }
};

inline ShardMode &
shardMode()
{
    static ShardMode mode;
    return mode;
}

/**
 * Strip the shard flags from argv (before benchmark::Initialize sees
 * them) and configure shardMode(). Called by SBN_BENCH_MAIN.
 */
inline void
initShardArgs(int *argc, char **argv)
{
    ShardMode &mode = shardMode();
    if (*argc > 0) {
        const std::string prog = argv[0];
        const std::size_t slash = prog.find_last_of('/');
        mode.benchName =
            slash == std::string::npos ? prog : prog.substr(slash + 1);
    }

    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--shard=", 0) == 0) {
            mode.active = true;
            mode.shard = ShardSpec::parse(arg.substr(8));
        } else if (arg.rfind("--shard-dir=", 0) == 0) {
            mode.dir = arg.substr(12);
        } else if (arg.rfind("--shard-layout=", 0) == 0) {
            mode.layout = parseShardLayout(arg.substr(15));
        } else if (arg == "--shard-resume") {
            mode.resume = true;
        } else {
            argv[kept++] = argv[i];
        }
    }
    *argc = kept;

    if (mode.active) {
        // Fail before any point simulates, not mid-run at the first
        // record write (see ensureWritableShardDir).
        ensureWritableShardDir(mode.dir);
        std::printf("shard mode: %s of each sweep grid (%s), records "
                    "under %s/\n",
                    mode.shard.toString().c_str(),
                    shardLayoutName(mode.layout), mode.dir.c_str());
    }
}

/**
 * Run one bench sweep over @p points (plain, or adaptive per
 * @p opt) and pass each record to @p onRecord in flat-index order.
 * Unsharded, every point runs through runSweepPoints on all hardware
 * threads. In shard mode only this process's shard runs, through the
 * same writeSweepPoints file path `sbn_sweep --shard` uses, and other
 * shards' cells yield no record.
 */
inline void
benchSweep(SweepRunOptions opt, const std::vector<SystemConfig> &points,
           const PointRecordCallback &onRecord)
{
    ShardMode &mode = shardMode();
    if (!mode.active) {
        opt.threads = hardwareThreads();
        std::vector<std::size_t> every(points.size());
        std::iota(every.begin(), every.end(), std::size_t{0});
        runSweepPoints(opt, points, every, onRecord);
        return;
    }

    const std::string path = mode.nextPath();
    const ShardPlan plan(points.size(), mode.shard.count, mode.layout);
    const ShardRunStats stats = writeSweepPoints(
        opt, points, plan.indices(mode.shard.index), path, mode.resume);
    std::printf("shard %s: %zu/%zu point(s) computed, %zu resumed "
                "-> %s\n",
                mode.shard.toString().c_str(), stats.computed,
                stats.owned, stats.skipped, path.c_str());
    for (const PointRecord &record :
         readRecordFile(path, /*tolerate_partial_tail=*/false))
        onRecord(record);
}

/**
 * EBW at each of @p points, in input order. In shard mode, cells
 * other shards own read back as NaN and print as nan.
 *
 * With @p onRow, the grid is table-shaped - printed rows are
 * @p row_width consecutive flat-grid cells (the row axis is the
 * sweep's outermost axis) - and onRow(row, cells) fires in row order
 * as soon as a row's cells and all earlier rows have finished, so the
 * reproduction prints progressively while later rows still simulate.
 */
inline std::vector<double>
sweepEbw(const std::vector<SystemConfig> &points,
         std::size_t row_width = 1,
         const std::function<void(std::size_t,
                                  const std::vector<double> &)> &onRow =
             {})
{
    sbn_assert(row_width >= 1 && points.size() % row_width == 0,
               "row width must evenly divide the sweep grid");
    std::vector<double> values(points.size(),
                               std::numeric_limits<double>::quiet_NaN());
    std::size_t row = 0;
    const auto emitRowsBelow = [&](std::size_t end) {
        for (; onRow && (row + 1) * row_width <= end; ++row)
            onRow(row, std::vector<double>(
                           values.begin() + static_cast<std::ptrdiff_t>(
                                                row * row_width),
                           values.begin() + static_cast<std::ptrdiff_t>(
                                                (row + 1) * row_width)));
    };
    // Records arrive in flat-index order, so every cell below the
    // current record is final (computed, or owned by another shard).
    benchSweep({}, points, [&](const PointRecord &record) {
        values[record.flatIndex] = record.mean;
        emitRowsBelow(record.flatIndex + 1);
    });
    emitRowsBelow(values.size());
    return values;
}

/** sweepEbw() over every materialized point of @p spec. */
inline std::vector<double>
sweepEbw(const SweepSpec &spec, std::size_t row_width = 1,
         const std::function<void(std::size_t,
                                  const std::vector<double> &)> &onRow =
             {})
{
    return sweepEbw(spec.materialize(), row_width, onRow);
}

/**
 * Adaptive-precision EBW sweep: every grid point is replicated (seeds
 * derived from its config.seed) until the CI half-width meets
 * @p target or the schedule cap, with each round's extra replications
 * fanned out on the shared pool. Results are bit-identical at any
 * thread count. In shard mode, off-shard cells report NaN with zero
 * samples; the summary and table printers treat them as "not
 * computed here".
 */
inline std::vector<AdaptiveEstimate>
adaptiveSweepEbw(const SweepSpec &spec, const PrecisionTarget &target,
                 const RoundSchedule &schedule,
                 const AdaptiveReplicator::PointCallback &onPoint = {})
{
    SweepRunOptions opt;
    opt.adaptive = true;
    opt.target = target;
    opt.schedule = schedule;
    const std::vector<SystemConfig> points = spec.materialize();
    std::vector<AdaptiveEstimate> estimates(points.size());
    for (AdaptiveEstimate &e : estimates)
        e.estimate.mean = std::numeric_limits<double>::quiet_NaN();
    benchSweep(opt, points, [&](const PointRecord &record) {
        AdaptiveEstimate &e = estimates[record.flatIndex];
        e.estimate.mean = record.mean;
        e.estimate.halfWidth = record.halfWidth;
        e.estimate.samples = record.replications;
        e.rounds = record.rounds;
        e.converged = record.converged;
        if (onPoint)
            onPoint(record.flatIndex, points[record.flatIndex], e);
    });
    return estimates;
}

/** One-line adaptivity summary for an adaptive sweep's estimates. */
inline void
reportAdaptivity(const std::vector<AdaptiveEstimate> &estimates)
{
    if (estimates.empty())
        return;
    std::uint64_t total = 0, lo = ~0ull, hi = 0;
    double worst_hw = 0.0;
    std::size_t capped = 0, counted = 0;
    for (const AdaptiveEstimate &e : estimates) {
        if (e.estimate.samples == 0)
            continue; // off-shard cell in shard mode
        ++counted;
        total += e.estimate.samples;
        lo = std::min<std::uint64_t>(lo, e.estimate.samples);
        hi = std::max<std::uint64_t>(hi, e.estimate.samples);
        worst_hw = std::max(worst_hw, e.estimate.halfWidth);
        if (!e.converged)
            ++capped;
    }
    if (counted == 0)
        return;
    std::printf("adaptive precision: %llu replications over %zu "
                "points (%llu-%llu per point), worst CI half-width "
                "%.4f, %zu point(s) hit the cap\n",
                static_cast<unsigned long long>(total), counted,
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi), worst_hw, capped);
}

/**
 * Print a relative-difference summary line for a paper-vs-ours pair
 * series; used at the bottom of each table reproduction.
 */
class DiffTracker
{
  public:
    void
    add(double paper, double ours)
    {
        if (std::isnan(ours))
            return; // off-shard cell in bench shard mode
        const double rel = std::abs(ours - paper) / paper;
        sum_ += rel;
        ++count_;
        if (rel > worst_) {
            worst_ = rel;
            worstPaper_ = paper;
            worstOurs_ = ours;
        }
    }

    void
    report(const char *what) const
    {
        if (!count_)
            return;
        std::printf("%s: mean |rel diff| = %.2f%%, worst = %.2f%% "
                    "(paper %.3f vs ours %.3f) over %d cells\n",
                    what, 100.0 * sum_ / count_, 100.0 * worst_,
                    worstPaper_, worstOurs_, count_);
    }

  private:
    double sum_ = 0.0;
    double worst_ = 0.0;
    double worstPaper_ = 0.0;
    double worstOurs_ = 0.0;
    int count_ = 0;
};

} // namespace sbn::bench

/**
 * Every bench defines printReproduction() and registers BENCHMARK
 * cases, then uses this main: reproduction first, timings second.
 * Shard flags (--shard=i/N, --shard-dir, --shard-layout,
 * --shard-resume; see ShardMode) are consumed before
 * google-benchmark parses the rest.
 */
#define SBN_BENCH_MAIN(print_reproduction)                                 \
    int main(int argc, char **argv)                                       \
    {                                                                      \
        ::sbn::bench::initShardArgs(&argc, argv);                         \
        print_reproduction();                                             \
        ::benchmark::Initialize(&argc, argv);                             \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))         \
            return 1;                                                     \
        ::benchmark::RunSpecifiedBenchmarks();                            \
        ::benchmark::Shutdown();                                          \
        return 0;                                                         \
    }

#endif // SBN_BENCH_BENCH_COMMON_HH
