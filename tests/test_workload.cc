/**
 * @file
 * Workload-subsystem tests: alias-sampler correctness, the
 * generalized (non-uniform) occupancy-chain cross-check against both
 * the lumped uniform chain and the simulator, golden Metrics pins
 * for every workload class, determinism across thread counts and
 * shard layouts, sweep workload axes, and the per-process memo of
 * weighted-chain solves. See docs/workloads.md.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/memprio.hh"
#include "analytic/occupancy_chain.hh"
#include "core/experiment.hh"
#include "core/fingerprint.hh"
#include "error_match.hh"
#include "exec/parallel_runner.hh"
#include "golden_util.hh"
#include "shard/merge.hh"
#include "shard/result_io.hh"
#include "service/sweeprun.hh"
#include "workload/analytic.hh"
#include "workload/workload.hh"

namespace sbn {
namespace {

using golden::GoldenLine;
using golden::checkExactGolden;
using golden::exact;

/** Per-process temp path, so concurrent test runs never collide. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "sbn_workload_" +
           std::to_string(::getpid()) + "_" + name;
}

// ------------------------------------------------------------ sampler

TEST(AliasTable, ReproducesTheTargetDistribution)
{
    const std::vector<double> weights{4.0, 1.0, 0.5, 2.5, 2.0};
    const AliasTable table(weights);
    ASSERT_EQ(table.size(), weights.size());

    double total = 0.0;
    for (double w : weights)
        total += w;

    RandomGenerator rng(4242);
    std::vector<std::uint64_t> counts(weights.size(), 0);
    const std::uint64_t draws = 400000;
    for (std::uint64_t i = 0; i < draws; ++i)
        ++counts[table.sample(rng)];

    for (std::size_t j = 0; j < weights.size(); ++j) {
        const double expected = weights[j] / total;
        const double observed =
            static_cast<double>(counts[j]) / static_cast<double>(draws);
        EXPECT_NEAR(observed, expected, 0.005)
            << "outcome " << j << " of weights {4,1,0.5,2.5,2}";
    }
}

TEST(AliasTable, HandlesDegenerateAndSkewedWeights)
{
    // Single outcome: every draw returns 0.
    const AliasTable single(std::vector<double>{3.0});
    RandomGenerator rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(single.sample(rng), 0u);

    // Heavy skew must still emit the rare outcome at its rate
    // (~1e-3: expect ~200 of 200000 draws).
    const AliasTable skewed(std::vector<double>{999.0, 1.0});
    std::uint64_t rare = 0;
    for (int i = 0; i < 200000; ++i)
        rare += skewed.sample(rng) == 1 ? 1 : 0;
    EXPECT_GT(rare, 100u);
    EXPECT_LT(rare, 400u);

    // Zero-weight outcomes never surface (Favorite f = 1).
    const AliasTable zero(std::vector<double>{0.0, 1.0, 0.0});
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(zero.sample(rng), 1u);
}

TEST(Workload, ModuleProbabilitiesMatchTheirDefinitions)
{
    WorkloadConfig hot;
    hot.pattern = ReferencePattern::HotSpot;
    hot.hotFraction = 0.4;
    hot.hotModule = 2;
    const std::vector<double> q = hot.moduleProbabilities(0, 4);
    EXPECT_DOUBLE_EQ(q[2], 0.4 + 0.6 / 4.0);
    EXPECT_DOUBLE_EQ(q[0], 0.6 / 4.0);

    WorkloadConfig fav;
    fav.pattern = ReferencePattern::Favorite;
    fav.favoriteFraction = 0.5;
    const std::vector<double> q5 = fav.moduleProbabilities(5, 4);
    EXPECT_DOUBLE_EQ(q5[5 % 4], 0.5 + 0.5 / 4.0);

    // h = 0 degenerates to exactly uniform.
    hot.hotFraction = 0.0;
    for (double p : hot.moduleProbabilities(0, 4))
        EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(Workload, FormatIsCanonical)
{
    EXPECT_EQ(formatWorkload(WorkloadConfig{}), "uniform");

    WorkloadConfig hot;
    hot.pattern = ReferencePattern::HotSpot;
    hot.hotFraction = 0.25;
    hot.hotModule = 3;
    EXPECT_EQ(formatWorkload(hot), "hotspot:h=0.25,module=3");

    WorkloadConfig two;
    two.think = ThinkModel::TwoClass;
    two.fastCount = 2;
    two.fastProbability = 1.0;
    two.slowProbability = 0.125;
    EXPECT_EQ(formatWorkload(two),
              "uniform;think=two:fast=2@1,slow=0.125");
}

// ----------------------------------------------------------- analytic

TEST(WeightedChain, CollapsesToTheLumpedChainForUniformQ)
{
    for (int n : {2, 3, 5}) {
        for (int m : {2, 4}) {
            for (int cap : {1, 3}) {
                const std::vector<double> uniform_q(
                    m, 1.0 / static_cast<double>(m));
                const WeightedChainResult weighted =
                    solveWeightedOccupancyChain(n, m, cap, uniform_q);
                const OccupancyChainResult &lumped =
                    solveOccupancyChainCached(n, m, cap);

                ASSERT_EQ(weighted.busyPmf.size(),
                          lumped.busyPmf.size());
                for (std::size_t x = 0; x < weighted.busyPmf.size(); ++x)
                    EXPECT_NEAR(weighted.busyPmf[x], lumped.busyPmf[x],
                                1e-10)
                        << "n=" << n << " m=" << m << " cap=" << cap
                        << " x=" << x;
                EXPECT_NEAR(weighted.meanBusy, lumped.meanBusy, 1e-10);
                EXPECT_NEAR(weighted.meanServiced, lumped.meanServiced,
                            1e-10);
                // Uniform q: every module equally busy.
                for (double b : weighted.moduleBusy)
                    EXPECT_NEAR(b, weighted.meanBusy / m, 1e-10);
            }
        }
    }
}

TEST(WeightedChain, UniformWorkloadEbwMatchesMemprioExact)
{
    for (int n : {2, 4, 6}) {
        for (int r : {2, 5}) {
            const double exact_uniform = memprioExactEbw(n, 4, r);
            const double via_weighted =
                workloadExactMemprioEbw(n, 4, r, WorkloadConfig{});
            EXPECT_NEAR(via_weighted, exact_uniform, 1e-10)
                << "n=" << n << " r=" << r;
        }
    }
}

TEST(WeightedChain, HotSpotShiftsLoadOntoTheHotModule)
{
    WorkloadConfig hot;
    hot.pattern = ReferencePattern::HotSpot;
    hot.hotFraction = 0.5;
    hot.hotModule = 0;
    const WeightedChainResult result = solveWeightedOccupancyChain(
        4, 4, 3, hot.moduleProbabilities(0, 4));
    for (std::size_t j = 1; j < result.moduleBusy.size(); ++j)
        EXPECT_GT(result.moduleBusy[0], result.moduleBusy[j]);
    // And the skew costs bandwidth vs uniform.
    const double uniform_ebw =
        workloadExactMemprioEbw(4, 4, 2, WorkloadConfig{});
    const double hot_ebw = workloadExactMemprioEbw(4, 4, 2, hot);
    EXPECT_LT(hot_ebw, uniform_ebw);
}

/**
 * The workload acceptance gate: non-uniform simulator results must
 * match the generalized occupancy chain on a small-(n, m) grid under
 * the chain's own hypotheses (memory priority, p = 1). The bounds
 * mirror the uniform cross-check in test_system_vs_models.cc: the
 * cycle-accurate machine lets early-serviced processors slip back in
 * mid-round, so the simulator sits slightly above the chain.
 */
TEST(WeightedChainVsSim, HotSpotAndWeightedTrackTheChain)
{
    std::vector<WorkloadConfig> workloads;
    {
        WorkloadConfig hot;
        hot.pattern = ReferencePattern::HotSpot;
        hot.hotFraction = 0.3;
        workloads.push_back(hot);
        hot.hotFraction = 0.6;
        workloads.push_back(hot);
    }

    for (const int n : {2, 4}) {
        for (const int m : {2, 4}) {
            for (const int r : {2, 5}) {
                std::vector<WorkloadConfig> cases = workloads;
                {
                    WorkloadConfig weighted;
                    weighted.pattern = ReferencePattern::Weighted;
                    weighted.moduleWeights.assign(m, 1.0);
                    weighted.moduleWeights[0] = 3.0;
                    cases.push_back(weighted);
                }
                for (const WorkloadConfig &w : cases) {
                    SystemConfig cfg;
                    cfg.numProcessors = n;
                    cfg.numModules = m;
                    cfg.memoryRatio = r;
                    cfg.policy = ArbitrationPolicy::MemoryPriority;
                    cfg.workload = w;
                    cfg.warmupCycles = 10000;
                    cfg.measureCycles = 300000;

                    const double sim = runEbw(cfg);
                    const double exact_ebw =
                        workloadExactMemprioEbw(n, m, r, w);
                    EXPECT_LT(sim / exact_ebw, 1.04)
                        << "n=" << n << " m=" << m << " r=" << r
                        << " workload=" << formatWorkload(w);
                    EXPECT_GT(sim / exact_ebw, 0.99)
                        << "n=" << n << " m=" << m << " r=" << r
                        << " workload=" << formatWorkload(w);
                }
            }
        }
    }
}

// ------------------------------------------------------- golden pins

/**
 * Pinned Metrics for every workload class (the non-uniform analogue
 * of the kernel golden grid): any change to the alias sampler, the
 * per-processor think draws or their RNG consumption fails here with
 * the workload and counter named.
 */
TEST(GoldenWorkloadMetrics, PinnedWorkloadGrid)
{
    std::vector<std::pair<std::string, WorkloadConfig>> cases;
    cases.emplace_back("uniform", WorkloadConfig{});
    {
        WorkloadConfig hot;
        hot.pattern = ReferencePattern::HotSpot;
        hot.hotFraction = 0.5;
        hot.hotModule = 1;
        cases.emplace_back("hotspot_h05_m1", hot);
    }
    {
        WorkloadConfig fav;
        fav.pattern = ReferencePattern::Favorite;
        fav.favoriteFraction = 0.6;
        cases.emplace_back("favorite_f06", fav);
    }
    {
        WorkloadConfig weighted;
        weighted.pattern = ReferencePattern::Weighted;
        weighted.moduleWeights = {8.0, 4.0, 2.0, 1.0, 1.0, 1.0};
        cases.emplace_back("weighted_8421", weighted);
    }
    {
        WorkloadConfig two;
        two.think = ThinkModel::TwoClass;
        two.fastCount = 3;
        two.fastProbability = 0.9;
        two.slowProbability = 0.1;
        cases.emplace_back("twoclass_3fast", two);
    }
    {
        WorkloadConfig vec;
        vec.pattern = ReferencePattern::HotSpot;
        vec.hotFraction = 0.3;
        vec.think = ThinkModel::PerProcessor;
        vec.thinkProbabilities = {1.0, 0.8, 0.6, 0.5, 0.4, 0.3,
                                  0.2, 0.1};
        cases.emplace_back("hotspot_perproc", vec);
    }

    std::vector<GoldenLine> computed;
    for (const auto &[name, workload] : cases) {
        SystemConfig cfg;
        cfg.numProcessors = 8;
        cfg.numModules = 6;
        cfg.memoryRatio = 6;
        cfg.requestProbability = 0.5;
        cfg.workload = workload;
        cfg.warmupCycles = 1000;
        cfg.measureCycles = 20000;
        cfg.seed = 20260727;

        const Metrics metrics = runOnce(cfg);
        computed.push_back(
            {name + " completed", exact(metrics.completedRequests)});
        computed.push_back(
            {name + " issued", exact(metrics.issuedRequests)});
        computed.push_back(
            {name + " busBusy", exact(metrics.busBusyCycles)});
        computed.push_back({name + " ebw", exact(metrics.ebw)});
        computed.push_back(
            {name + " meanWait", exact(metrics.meanWaitCycles)});
    }
    checkExactGolden("workload_metrics", computed);
}

// -------------------------------------------------------- behaviour

TEST(WorkloadBehaviour, FastProcessorsCompleteMore)
{
    SystemConfig cfg;
    cfg.numProcessors = 8;
    cfg.numModules = 8;
    cfg.memoryRatio = 4;
    cfg.workload.think = ThinkModel::TwoClass;
    cfg.workload.fastCount = 4;
    cfg.workload.fastProbability = 0.9;
    cfg.workload.slowProbability = 0.1;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 100000;

    const Metrics metrics = runOnce(cfg);
    std::uint64_t fast = 0, slow = 0;
    for (int p = 0; p < 4; ++p)
        fast += metrics.perProcessorCompletions[p];
    for (int p = 4; p < 8; ++p)
        slow += metrics.perProcessorCompletions[p];
    EXPECT_GT(fast, 3 * slow);
}

TEST(WorkloadBehaviour, PerfectFavoritesBeatUniformAtSaturation)
{
    // f = 1 with n = m: every processor owns a private module, so
    // only bus contention remains - strictly better than uniform's
    // module collisions.
    SystemConfig uniform;
    uniform.numProcessors = 8;
    uniform.numModules = 8;
    uniform.memoryRatio = 8;
    uniform.warmupCycles = 2000;
    uniform.measureCycles = 100000;

    SystemConfig favorite = uniform;
    favorite.workload.pattern = ReferencePattern::Favorite;
    favorite.workload.favoriteFraction = 1.0;

    EXPECT_GT(runEbw(favorite), runEbw(uniform));
}

TEST(WorkloadBehaviour, HotSpotDegradesEbwMonotonically)
{
    double previous = 1e300;
    for (double h : {0.0, 0.3, 0.6, 0.9}) {
        SystemConfig cfg;
        cfg.numProcessors = 8;
        cfg.numModules = 8;
        cfg.memoryRatio = 8;
        cfg.workload.pattern = ReferencePattern::HotSpot;
        cfg.workload.hotFraction = h;
        cfg.warmupCycles = 2000;
        cfg.measureCycles = 100000;
        const double ebw = runEbw(cfg);
        EXPECT_LT(ebw, previous * 1.01) << "h=" << h;
        previous = ebw;
    }
}

// ------------------------------------------------------- sweep axes

TEST(WorkloadSweep, HotFractionAxisMaterializesInnermost)
{
    SweepSpec spec;
    spec.memoryRatios = {2, 4};
    spec.hotFractions = {0.0, 0.5, 0.9};
    EXPECT_EQ(spec.size(), 6u);

    const std::vector<SystemConfig> points = spec.materialize();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].memoryRatio, 2);
    EXPECT_EQ(points[2].memoryRatio, 2);
    EXPECT_EQ(points[3].memoryRatio, 4);
    for (const SystemConfig &cfg : points)
        EXPECT_EQ(cfg.workload.pattern, ReferencePattern::HotSpot);
    EXPECT_DOUBLE_EQ(points[0].workload.hotFraction, 0.0);
    EXPECT_DOUBLE_EQ(points[1].workload.hotFraction, 0.5);
    EXPECT_DOUBLE_EQ(points[5].workload.hotFraction, 0.9);
}

TEST(WorkloadSweepDeathTest, RejectsConflictingWorkloadAxes)
{
    std::string error;
    SweepSpec spec;
    spec.hotFractions = {0.2};
    spec.favoriteFractions = {0.3};
    EXPECT_FALSE(spec.validate(error));
    EXPECT_TRUE(errorMatches(error, "conflicting"));

    SweepSpec bad;
    bad.hotFractions = {1.5};
    EXPECT_FALSE(bad.validate(error));
    EXPECT_TRUE(errorMatches(error, "hotFractions"));
}

// ---------------------------------------------- determinism contract

/** The hot-spot grid the determinism tests sweep. */
SweepSpec
hotSpotSpec()
{
    SweepSpec spec;
    spec.base.numProcessors = 6;
    spec.base.numModules = 4;
    spec.base.memoryRatio = 4;
    spec.base.warmupCycles = 200;
    spec.base.measureCycles = 3000;
    spec.base.seed = 777;
    spec.requestProbabilities = {0.3, 1.0};
    spec.hotFractions = {0.0, 0.4, 0.8};
    return spec;
}

TEST(WorkloadDeterminism, IdenticalAcrossThreadCounts)
{
    const std::vector<SystemConfig> points =
        hotSpotSpec().materialize();
    const auto evaluate = [&](std::size_t i) {
        return runEbw(points[i]);
    };
    ParallelRunner serial(1);
    const std::vector<double> reference =
        serial.map<double>(points.size(), evaluate);
    ASSERT_EQ(reference.size(), 6u);

    for (const unsigned threads :
         {4u, hardwareThreads()}) {
        ParallelRunner runner(threads);
        const std::vector<double> values =
            runner.map<double>(points.size(), evaluate);
        ASSERT_EQ(values.size(), reference.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            EXPECT_EQ(values[i], reference[i])
                << "point " << i << " at " << threads << " threads";
    }
}

TEST(WorkloadDeterminism, ShardLayoutsMergeByteIdenticalToSerial)
{
    const std::vector<SystemConfig> points =
        hotSpotSpec().materialize();
    const SweepRunOptions opt;
    const auto runShard = [&](const ShardSpec &shard, ShardLayout layout,
                              const std::string &path) {
        writeSweepPoints(opt, points,
                         ShardPlan(points.size(), shard.count, layout)
                             .indices(shard.index),
                         path, /*resume=*/false);
    };

    // Serial reference: the whole grid as one shard.
    const std::string serial = tempPath("hotspot_serial.jsonl");
    runShard({0, 1}, ShardLayout::Contiguous, serial);
    std::ifstream in(serial, std::ios::binary);
    std::ostringstream serial_bytes;
    serial_bytes << in.rdbuf();

    for (const ShardLayout layout :
         {ShardLayout::Contiguous, ShardLayout::Strided}) {
        std::vector<std::string> files;
        for (std::size_t s = 0; s < 4; ++s) {
            files.push_back(
                tempPath("hotspot_" +
                         std::string(shardLayoutName(layout)) + "_" +
                         std::to_string(s) + ".jsonl"));
            runShard({s, 4}, layout, files.back());
        }
        const std::vector<PointRecord> merged =
            mergeRecordFiles(files, sweepMergeCheck(points));
        std::ostringstream merged_bytes;
        writeRecords(merged_bytes, merged);
        EXPECT_EQ(merged_bytes.str(), serial_bytes.str())
            << shardLayoutName(layout);
        for (const std::string &file : files)
            std::remove(file.c_str());
    }
    std::remove(serial.c_str());
}

// ------------------------------------------------------ solve memo

TEST(WeightedChain, MemoizedSolveMatchesADirectSolveBitForBit)
{
    // An unusual q so no other test's in-process memo covers it.
    const std::vector<double> q{0.55, 0.25, 0.2};
    const WeightedChainResult &memo =
        solveWeightedOccupancyChainCached(3, 3, 2, q);
    EXPECT_EQ(&solveWeightedOccupancyChainCached(3, 3, 2, q), &memo);

    const WeightedChainResult fresh =
        solveWeightedOccupancyChain(3, 3, 2, q);
    EXPECT_EQ(doubleFingerprintBits(memo.meanBusy),
              doubleFingerprintBits(fresh.meanBusy));
    EXPECT_EQ(doubleFingerprintBits(memo.meanServiced),
              doubleFingerprintBits(fresh.meanServiced));
    ASSERT_EQ(memo.busyPmf.size(), fresh.busyPmf.size());
    for (std::size_t x = 0; x < fresh.busyPmf.size(); ++x)
        EXPECT_EQ(doubleFingerprintBits(memo.busyPmf[x]),
                  doubleFingerprintBits(fresh.busyPmf[x]));
    ASSERT_EQ(memo.moduleBusy.size(), fresh.moduleBusy.size());
    for (std::size_t j = 0; j < fresh.moduleBusy.size(); ++j)
        EXPECT_EQ(doubleFingerprintBits(memo.moduleBusy[j]),
                  doubleFingerprintBits(fresh.moduleBusy[j]));
}

} // namespace
} // namespace sbn
