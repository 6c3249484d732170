/**
 * @file
 * Tests for the execution layer: the runner's fan-out engine, ordered
 * parallel map, and the determinism contract - replication and sweep
 * results must be bit-identical to serial execution at any thread
 * count.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "error_match.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "stats/accumulator.hh"
#include "stats/replication.hh"
#include "util/random.hh"

namespace sbn {
namespace {

TEST(Exec, HardwareThreadsIsPositive)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

#ifdef __linux__
TEST(Exec, HardwareThreadsCountsTheAffinityMask)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(hardwareThreads(),
              static_cast<unsigned>(CPU_COUNT(&mask)));

    // Pin a forked child to the first CPU it may run on: it must see
    // exactly one usable CPU, however many the host has online.
    constexpr int kRefused = 77;
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        int cpu = 0;
        while (!CPU_ISSET(cpu, &mask))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            _exit(kRefused);
        _exit(hardwareThreads() == 1 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    if (WEXITSTATUS(status) == kRefused)
        GTEST_SKIP() << "sched_setaffinity is not permitted here";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "a child pinned to one CPU saw more than one";
}
#endif

TEST(ParallelRunner, MapCollectsResultsByIndex)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        EXPECT_EQ(runner.threads(), threads);
        const auto squares = runner.map<int>(100, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
        ASSERT_EQ(squares.size(), 100u);
        for (std::size_t i = 0; i < squares.size(); ++i)
            EXPECT_EQ(squares[i], static_cast<int>(i * i));
    }
}

TEST(ParallelRunner, ForEachIndexVisitsEachIndexOnce)
{
    ParallelRunner runner(8);
    std::vector<std::atomic<int>> visits(257);
    runner.forEachIndex(visits.size(),
                        [&](std::size_t i) { ++visits[i]; });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunner, BackToBackFanOutsVisitEachIndexOnce)
{
    // Counts 0..18 cover fan-outs below, at and above every T, so the
    // number of helpers started varies from one fan-out to the next.
    // Items of uneven length record their visit last, so a fan-out
    // that returned while a helper was still mid-item would show a
    // missing visit.
    std::vector<std::atomic<int>> visits(18);
    const auto visit = [&](std::size_t i) {
        for (volatile std::size_t spin = 0; spin < (i % 4) * 500; ++spin) {
        }
        ++visits[i];
    };
    for (unsigned threads : {2u, 3u, 8u}) {
        ParallelRunner runner(threads);
        for (int round = 0; round < 2000; ++round) {
            const auto count = static_cast<std::size_t>(round % 19);
            for (auto &v : visits)
                v.store(0);
            runner.forEachIndex(count, visit);
            for (std::size_t i = 0; i < visits.size(); ++i)
                ASSERT_EQ(visits[i].load(), i < count ? 1 : 0)
                    << threads << " threads, round " << round
                    << ", index " << i;
        }
    }
}

TEST(ParallelRunner, ConcurrentCallersFanOutOnOneRunner)
{
    // Three threads fan out on one runner at the same time, each with
    // helpers of its own; every result lands in its own caller's slot.
    const ParallelRunner shared(4);
    std::atomic<int> wrong{0};
    const auto caller = [&](int salt) {
        for (int round = 0; round < 500; ++round) {
            const auto count = static_cast<std::size_t>(1 + round % 19);
            const auto values = shared.map<int>(
                count, [&](std::size_t i) {
                    return salt * 1000 + static_cast<int>(i);
                });
            for (std::size_t i = 0; i < count; ++i)
                if (values[i] != salt * 1000 + static_cast<int>(i))
                    ++wrong;
        }
    };
    std::vector<std::thread> callers;
    for (int salt = 1; salt <= 3; ++salt)
        callers.emplace_back(caller, salt);
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelRunner, NestedFanOutOnTheSameRunnerVisitsEachIndexOnce)
{
    // A work item's fan-out starts helpers of its own, so it needs
    // nothing the outer fan-out holds.
    const ParallelRunner runner(4);
    std::vector<std::atomic<int>> visits(16 * 16);
    runner.forEachIndex(16, [&](std::size_t outer) {
        runner.forEachIndex(16, [&](std::size_t inner) {
            ++visits[outer * 16 + inner];
        });
    });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunner, ZeroItemsIsANoOp)
{
    ParallelRunner runner(4);
    runner.forEachIndex(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelRunner, PropagatesWorkerExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        ParallelRunner runner(threads);
        EXPECT_THROW(runner.forEachIndex(64,
                                         [](std::size_t i) {
                                             if (i == 3)
                                                 throw std::runtime_error(
                                                     "boom");
                                         }),
                     std::runtime_error);
    }
}

/** Synthetic RNG experiment with enough arithmetic to expose any
    reduction-order difference in the last bit. */
double
noisyExperiment(std::uint64_t seed)
{
    RandomGenerator rng(seed);
    double acc = 0.0;
    for (int i = 0; i < 250; ++i)
        acc += rng.uniformReal() * 3.7 - 1.2;
    return acc;
}

/**
 * The replication rule written out serially, independent of
 * ReplicationRounds: seeds in order from the master stream, values
 * folded in replication order, a half-width only from two or more
 * replications.
 */
Estimate
serialReplications(const std::function<double(std::uint64_t)> &experiment,
                   unsigned replications, std::uint64_t master_seed)
{
    RandomGenerator seeder(master_seed);
    Accumulator acc;
    for (unsigned i = 0; i < replications; ++i)
        acc.add(experiment(seeder.deriveSeed()));
    Estimate e;
    e.mean = acc.mean();
    e.halfWidth =
        replications >= 2 ? acc.confidenceHalfWidth(0.95) : 0.0;
    e.samples = acc.count();
    return e;
}

/** A small simulated system for the replicate() tests. */
SystemConfig
smallSystem(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 2000;
    cfg.seed = seed;
    return cfg;
}

/** runEbw() of @p cfg with its seed replaced by @p seed. */
double
ebwAtSeed(SystemConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    return runEbw(cfg);
}

TEST(ParallelRunner, ReplicationsBitIdenticalToSerialPath)
{
    const SystemConfig cfg = smallSystem(424242);
    const Estimate serial = serialReplications(
        [&](std::uint64_t seed) { return ebwAtSeed(cfg, seed); }, 11,
        cfg.seed);

    for (unsigned threads : {1u, 2u, 8u}) {
        const Estimate parallel = replicate(
            cfg, 11, [](const Metrics &m) { return m.ebw; }, threads);
        // Exact floating-point equality, not NEAR: the contract is
        // bit-identical results at any thread count.
        EXPECT_EQ(parallel.mean, serial.mean) << threads << " threads";
        EXPECT_EQ(parallel.halfWidth, serial.halfWidth)
            << threads << " threads";
        EXPECT_EQ(parallel.samples, serial.samples);
    }
}

TEST(ParallelRunner, SimulationReplicationsBitIdenticalAcrossThreads)
{
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numModules = 4;
    cfg.memoryRatio = 4;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 5000;
    cfg.seed = 99;

    const auto metric = [](const Metrics &m) { return m.ebw; };
    const Estimate serial = replicate(cfg, 6, metric, 1);
    for (unsigned threads : {2u, 8u}) {
        const Estimate parallel = replicate(cfg, 6, metric, threads);
        EXPECT_EQ(parallel.mean, serial.mean) << threads << " threads";
        EXPECT_EQ(parallel.halfWidth, serial.halfWidth)
            << threads << " threads";
    }
}

/** Never met: an adaptive run with it always grows to its cap. */
PrecisionTarget
neverMet()
{
    PrecisionTarget target;
    target.relative = 0.0;
    target.absolute = 0.0;
    return target;
}

/** AdaptiveReplicator::runPoints over one point with master seed
    @p seed, running noisyExperiment. */
AdaptiveEstimate
adaptiveNoisy(const AdaptiveReplicator &replicator, std::uint64_t seed)
{
    SystemConfig point;
    point.seed = seed;
    return replicator
        .runPoints({point},
                   [](const SystemConfig &, std::uint64_t s) {
                       return noisyExperiment(s);
                   })
        .front();
}

TEST(ParallelRunner, SeedsMatchTheSerialDerivationStream)
{
    // The seeds handed to the experiment must be exactly the ones the
    // derivation stream yields, in replication order, across the
    // round boundaries of a 2 -> 4 -> 5 schedule.
    RandomGenerator seeder(7);
    std::vector<std::uint64_t> expected(5);
    for (auto &s : expected)
        s = seeder.deriveSeed();

    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 5;
    ParallelRunner runner(1); // serial so the capture below is ordered
    const AdaptiveReplicator replicator(runner, neverMet(), schedule);
    SystemConfig point;
    point.seed = 7;
    std::vector<std::uint64_t> seen;
    const AdaptiveEstimate a = replicator.runPoints(
        {point}, [&](const SystemConfig &, std::uint64_t seed) {
            seen.push_back(seed);
            return 0.0;
        }).front();
    EXPECT_EQ(a.rounds, 3u);
    EXPECT_EQ(seen, expected);
}

TEST(ParallelRunner, SingleReplicationHasZeroHalfWidth)
{
    const SystemConfig cfg = smallSystem(123);
    const Estimate e = replicate(
        cfg, 1, [](const Metrics &m) { return m.ebw; }, 2);
    EXPECT_EQ(e.samples, 1u);
    EXPECT_EQ(e.halfWidth, 0.0);
    EXPECT_EQ(e.mean,
              ebwAtSeed(cfg, RandomGenerator(cfg.seed).deriveSeed()));
}

TEST(SweepSpec, EmptyAxesYieldTheBasePoint)
{
    SweepSpec spec;
    spec.base.numProcessors = 3;
    spec.base.numModules = 5;
    EXPECT_EQ(spec.size(), 1u);
    const auto points = spec.materialize();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].numProcessors, 3);
    EXPECT_EQ(points[0].numModules, 5);
}

TEST(SweepSpec, MaterializesTheCrossProductInDocumentedOrder)
{
    SweepSpec spec;
    spec.base.seed = 77;
    spec.processors = {2, 4};
    spec.memoryRatios = {2, 4, 6};
    spec.buffering = {false, true};
    EXPECT_EQ(spec.size(), 12u);

    const auto points = spec.materialize();
    ASSERT_EQ(points.size(), 12u);
    std::size_t idx = 0;
    for (int n : {2, 4}) {
        for (int r : {2, 4, 6}) {
            for (bool b : {false, true}) {
                EXPECT_EQ(points[idx].numProcessors, n);
                EXPECT_EQ(points[idx].memoryRatio, r);
                EXPECT_EQ(points[idx].buffered, b);
                EXPECT_EQ(points[idx].seed, 77u); // inherited
                ++idx;
            }
        }
    }
}

/** The message validate() rejects @p spec with, or "" when it
 *  accepts. */
std::string
rejection(const SweepSpec &spec)
{
    std::string error;
    return spec.validate(error) ? "" : error;
}

TEST(SweepSpecDeathTest, ValidateRejectsDuplicateAxisValues)
{
    SweepSpec spec;
    spec.processors = {2, 4, 2};
    EXPECT_TRUE(errorMatches(rejection(spec), "axis 'processors'.*twice"));

    spec = SweepSpec{};
    spec.requestProbabilities = {0.1, 0.1};
    EXPECT_TRUE(errorMatches(rejection(spec),
                             "axis 'requestProbabilities'.*twice"));

    spec = SweepSpec{};
    spec.policies = {ArbitrationPolicy::MemoryPriority,
                     ArbitrationPolicy::MemoryPriority};
    EXPECT_TRUE(errorMatches(rejection(spec), "axis 'policies'.*twice"));

    spec = SweepSpec{};
    spec.buffering = {true, true};
    EXPECT_TRUE(errorMatches(rejection(spec), "axis 'buffering'.*twice"));

    // materialize() validates implicitly and dies on a rejection, so
    // no sweep entry point runs a malformed grid.
    spec = SweepSpec{};
    spec.modules = {4, 4};
    EXPECT_DEATH((void)spec.materialize(), "axis 'modules'.*twice");
}

TEST(SweepSpecDeathTest, ValidateRejectsOutOfDomainAxisValues)
{
    SweepSpec spec;
    spec.processors = {0};
    EXPECT_TRUE(errorMatches(rejection(spec), "processors axis value"));

    spec = SweepSpec{};
    spec.memoryRatios = {4, -2};
    EXPECT_TRUE(errorMatches(rejection(spec), "memoryRatios axis value"));

    spec = SweepSpec{};
    spec.requestProbabilities = {0.5, 1.5};
    EXPECT_TRUE(errorMatches(rejection(spec),
                             "requestProbabilities axis value"));

    // The base config is validated too.
    spec = SweepSpec{};
    spec.base.numProcessors = -1;
    EXPECT_TRUE(errorMatches(rejection(spec), "numProcessors"));
}

TEST(SweepSpec, ValidateAcceptsWellFormedGrids)
{
    SweepSpec spec;
    spec.processors = {2, 4};
    spec.requestProbabilities = {0.1, 1.0};
    // Empty axes mean "base value" and are fine.
    EXPECT_EQ(rejection(spec), "");
    EXPECT_EQ(spec.materialize().size(), 4u);
}

TEST(ParallelRunner, SweepResultsMatchSerialEvaluationInGridOrder)
{
    SweepSpec spec;
    spec.processors = {2, 4, 8};
    spec.modules = {2, 8};
    spec.memoryRatios = {2, 4, 6, 8};

    const auto evaluate = [](const SystemConfig &cfg) {
        return cfg.numProcessors * 10000.0 + cfg.numModules * 100.0 +
               cfg.memoryRatio;
    };

    const auto points = spec.materialize();
    std::vector<double> expected;
    for (const auto &cfg : points)
        expected.push_back(evaluate(cfg));

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        EXPECT_EQ(runner.map<double>(points.size(),
                                     [&](std::size_t i) {
                                         return evaluate(points[i]);
                                     }),
                  expected)
            << threads << " threads";
    }
}

TEST(ParallelRunner, StreamEmitsEveryIndexInOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        std::vector<std::size_t> order;
        std::vector<int> emitted;
        // The emit callback is serialized by the runner's emission
        // gate, so plain push_back is safe even with 8 workers.
        const auto values = runner.stream<int>(
            211, [](std::size_t i) { return static_cast<int>(i) * 3; },
            [&](std::size_t i, const int &v) {
                order.push_back(i);
                emitted.push_back(v);
            });
        ASSERT_EQ(order.size(), 211u) << threads << " threads";
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], i);
            EXPECT_EQ(emitted[i], static_cast<int>(i) * 3);
            EXPECT_EQ(values[i], static_cast<int>(i) * 3);
        }
    }
}

TEST(ParallelRunner, ThrowingEmitNeverDoubleEmitsOrOvershoots)
{
    for (unsigned threads : {1u, 4u}) {
        ParallelRunner runner(threads);
        std::vector<int> emits(100, 0);
        EXPECT_THROW(
            runner.stream<int>(
                100,
                [](std::size_t i) { return static_cast<int>(i); },
                [&](std::size_t i, const int &) {
                    ++emits[i];
                    if (i == 10)
                        throw std::runtime_error("emit boom");
                }),
            std::runtime_error);
        // Emission is ordered, so everything before the throwing
        // index fired exactly once, nothing after it fired at all,
        // and the throwing index itself was not re-emitted.
        for (std::size_t i = 0; i <= 10; ++i)
            EXPECT_EQ(emits[i], 1) << "index " << i;
        for (std::size_t i = 11; i < emits.size(); ++i)
            EXPECT_EQ(emits[i], 0) << "index " << i;
    }
}

TEST(ParallelRunner, SweepStreamedMatchesSweepAndStreamsInGridOrder)
{
    SweepSpec spec;
    spec.processors = {2, 4, 8};
    spec.memoryRatios = {2, 4, 6, 8};
    const auto evaluate = [](const SystemConfig &cfg) {
        return cfg.numProcessors * 100.0 + cfg.memoryRatio;
    };

    const auto points = spec.materialize();
    const auto evaluatePoint = [&](std::size_t i) {
        return evaluate(points[i]);
    };
    ParallelRunner reference(1);
    const std::vector<double> expected =
        reference.map<double>(points.size(), evaluatePoint);

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        std::vector<std::size_t> order;
        std::vector<double> streamed;
        const std::vector<double> grid = runner.stream<double>(
            points.size(), evaluatePoint,
            [&](std::size_t i, const double &value) {
                order.push_back(i);
                streamed.push_back(value);
                EXPECT_EQ(evaluate(points[i]), value);
            });
        EXPECT_EQ(grid, expected) << threads << " threads";
        EXPECT_EQ(streamed, expected) << threads << " threads";
        ASSERT_EQ(order.size(), expected.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(RoundSchedule, CumulativeTargetsAreMonotoneUpToTheCap)
{
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.growth = 1.5;
    schedule.cap = 40;

    unsigned previous = 0;
    for (unsigned round = 0; round < 32; ++round) {
        const unsigned target = schedule.targetAfterRound(round);
        EXPECT_LE(target, schedule.cap);
        if (previous < schedule.cap)
            EXPECT_GT(target, previous) << "round " << round;
        else
            EXPECT_EQ(target, schedule.cap);
        previous = target;
    }
    EXPECT_EQ(previous, schedule.cap); // schedule reaches the cap
}

TEST(AdaptiveReplicator, TargetMetOrCapReached)
{
    ParallelRunner runner(1);
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 40;
    const AdaptiveReplicator replicator(runner, target, schedule);

    for (std::uint64_t seed : {1ull, 7ull, 99ull, 424242ull}) {
        const AdaptiveEstimate a = adaptiveNoisy(replicator, seed);
        EXPECT_GE(a.estimate.samples, 2u);
        EXPECT_LE(a.estimate.samples, 40u);
        EXPECT_GE(a.rounds, 1u);
        if (a.converged) {
            EXPECT_LE(a.estimate.halfWidth,
                      0.02 * std::abs(a.estimate.mean));
        } else {
            EXPECT_EQ(a.estimate.samples, 40u);
        }
    }
}

TEST(AdaptiveReplicator, TighteningTheTargetNeverShrinksTheRun)
{
    ParallelRunner runner(1);
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 64;

    std::uint64_t previous_samples = 0;
    for (double relative : {0.5, 0.1, 0.02, 0.004}) {
        PrecisionTarget target;
        target.relative = relative;
        const AdaptiveReplicator replicator(runner, target, schedule);
        const AdaptiveEstimate a = adaptiveNoisy(replicator, 5);
        EXPECT_GE(a.estimate.samples, previous_samples)
            << "relative target " << relative;
        previous_samples = a.estimate.samples;
    }
}

TEST(AdaptiveReplicator, BitIdenticalAcrossThreadCounts)
{
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 32;

    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const AdaptiveEstimate reference = adaptiveNoisy(serial, 7);

    for (unsigned threads :
         {2u, hardwareThreads() + 1}) {
        ParallelRunner runner(threads);
        const AdaptiveReplicator replicator(runner, target, schedule);
        const AdaptiveEstimate a = adaptiveNoisy(replicator, 7);
        // Exact equality: the adaptive determinism contract.
        EXPECT_EQ(a.estimate.mean, reference.estimate.mean)
            << threads << " threads";
        EXPECT_EQ(a.estimate.halfWidth, reference.estimate.halfWidth)
            << threads << " threads";
        EXPECT_EQ(a.estimate.samples, reference.estimate.samples);
        EXPECT_EQ(a.rounds, reference.rounds);
        EXPECT_EQ(a.converged, reference.converged);
    }
}

TEST(AdaptiveReplicator, FinalEstimateMatchesOneShotReplications)
{
    // Whatever count the adaptive run stops at, the estimate must be
    // bit-identical to a one-shot run of that many replications: the
    // seed stream ignores round boundaries.
    ParallelRunner runner(4);
    PrecisionTarget target;
    target.relative = 0.05;
    const AdaptiveReplicator replicator(runner, target, {});
    const AdaptiveEstimate a = adaptiveNoisy(replicator, 31);

    const Estimate one_shot = serialReplications(
        noisyExperiment, static_cast<unsigned>(a.estimate.samples), 31);
    EXPECT_EQ(a.estimate.mean, one_shot.mean);
    EXPECT_EQ(a.estimate.halfWidth, one_shot.halfWidth);
    EXPECT_EQ(a.estimate.samples, one_shot.samples);
}

/** Per-point experiment whose variance scales with the point's r, so
    a sweep mixes early- and late-converging grid points. */
double
pointExperiment(const SystemConfig &cfg, std::uint64_t seed)
{
    RandomGenerator rng(seed);
    double acc = 0.0;
    for (int i = 0; i < 50; ++i)
        acc += 10.0 + rng.uniformReal() * cfg.memoryRatio;
    return acc / 50.0;
}

TEST(AdaptiveReplicator, SweepStreamsFinalizedPointsInFlatOrder)
{
    SweepSpec spec;
    spec.base.seed = 2026;
    spec.processors = {2, 4};
    spec.memoryRatios = {1, 2, 4, 8, 16, 32};

    PrecisionTarget target;
    target.relative = 0.01;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 64;

    const auto points = spec.materialize();
    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const std::vector<AdaptiveEstimate> reference =
        serial.runPoints(points, pointExperiment);
    ASSERT_EQ(reference.size(), 12u);

    // Wider variances need more rounds - the sweep must be genuinely
    // adaptive for the streaming order to be worth testing.
    EXPECT_GT(reference.back().estimate.samples,
              reference.front().estimate.samples);

    for (unsigned threads :
         {1u, 2u, hardwareThreads() + 1}) {
        ParallelRunner runner(threads);
        const AdaptiveReplicator replicator(runner, target, schedule);
        std::vector<std::size_t> order;
        const std::vector<AdaptiveEstimate> results =
            replicator.runPoints(
                points, pointExperiment,
                [&](std::size_t i, const SystemConfig &cfg,
                    const AdaptiveEstimate &estimate) {
                    order.push_back(i);
                    EXPECT_EQ(cfg.memoryRatio,
                              spec.memoryRatios[i % 6]);
                    EXPECT_EQ(estimate.estimate.samples,
                              reference[i].estimate.samples);
                });
        ASSERT_EQ(order.size(), 12u) << threads << " threads";
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].estimate.mean,
                      reference[i].estimate.mean)
                << threads << " threads, point " << i;
            EXPECT_EQ(results[i].estimate.halfWidth,
                      reference[i].estimate.halfWidth);
            EXPECT_EQ(results[i].estimate.samples,
                      reference[i].estimate.samples);
            EXPECT_EQ(results[i].rounds, reference[i].rounds);
            EXPECT_EQ(results[i].converged, reference[i].converged);
        }
    }
}

TEST(AdaptiveReplicator, SweepStressManyPointsThreadCountInvariant)
{
    SweepSpec spec;
    spec.base.seed = 77;
    spec.processors = {2, 4, 8, 16};
    spec.modules = {2, 4};
    spec.memoryRatios = {1, 3, 9, 27};

    PrecisionTarget target;
    target.relative = 0.015;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.growth = 3.0;
    schedule.cap = 30;

    const auto points = spec.materialize();
    ParallelRunner serial_runner(1);
    const AdaptiveReplicator serial(serial_runner, target, schedule);
    const std::vector<AdaptiveEstimate> reference =
        serial.runPoints(points, pointExperiment);
    ASSERT_EQ(reference.size(), 32u);

    ParallelRunner runner(hardwareThreads() + 3);
    const AdaptiveReplicator replicator(runner, target, schedule);
    const std::vector<AdaptiveEstimate> results =
        replicator.runPoints(points, pointExperiment);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].estimate.mean, reference[i].estimate.mean)
            << "point " << i;
        EXPECT_EQ(results[i].estimate.halfWidth,
                  reference[i].estimate.halfWidth);
        EXPECT_EQ(results[i].estimate.samples,
                  reference[i].estimate.samples);
        EXPECT_EQ(results[i].converged, reference[i].converged);
        if (results[i].converged) {
            EXPECT_LE(results[i].estimate.halfWidth,
                      0.015 * std::abs(results[i].estimate.mean));
        } else {
            EXPECT_EQ(results[i].estimate.samples, 30u);
        }
    }
}

TEST(ParallelRunner, StaysUsableAfterWorkerException)
{
    ParallelRunner runner(4);
    for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_THROW(
            runner.forEachIndex(64,
                                [](std::size_t i) {
                                    if (i % 7 == 3)
                                        throw std::runtime_error(
                                            "boom");
                                }),
            std::runtime_error);

        // The same runner must keep working after the propagated
        // failure.
        const auto squares = runner.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
        ASSERT_EQ(squares.size(), 50u);
        for (std::size_t i = 0; i < squares.size(); ++i)
            EXPECT_EQ(squares[i], static_cast<int>(i * i));

        RoundSchedule one_round;
        one_round.initial = 5;
        one_round.cap = 5;
        const AdaptiveEstimate a = adaptiveNoisy(
            AdaptiveReplicator(runner, neverMet(), one_round), 11);
        EXPECT_EQ(a.estimate.samples, 5u);
    }
}

/**
 * No runner thread outlives its fan-out, so a process that has fanned
 * out forks single-threaded, and its child can fan out on the same
 * runner. ThreadSanitizer kills a child that starts a thread after a
 * multi-threaded fork; the alarm turns a hang into a failed child.
 */
TEST(ParallelRunner, ChildForkedAfterAFanOutFansOut)
{
    const ParallelRunner runner(4);
    const auto square = [](std::size_t i) {
        return static_cast<int>(i * i);
    };
    ASSERT_EQ(runner.map<int>(64, square)[63], 63 * 63);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        alarm(5);
        const auto values = runner.map<int>(64, square);
        _exit(values[63] == 63 * 63 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/**
 * Helpers that cannot start leave their share to the threads that
 * did. The child caps its address space a little above its current
 * size, so no thread stack can be mapped and std::thread throws; the
 * fan-out must still visit every index, on the caller alone. The
 * child is a fresh process (the binary's death tests re-execute it),
 * so glibc holds no cached stack of an earlier thread to reuse.
 * Exit status 2 means the cap let a thread start, 3 that it could not
 * be set.
 */
TEST(ParallelRunnerDeathTest,
     HelpersThatCannotStartLeaveTheirShareToTheCaller)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    // Both reserve their shadow memory at start-up, far above any cap
    // a child could set.
    GTEST_SKIP() << "sanitizers reserve their address space at start-up";
#endif
    const auto capThenFanOut = [] {
        alarm(5);
        std::vector<std::atomic<int>> visits(64);
        long pages = 0;
        std::FILE *statm = std::fopen("/proc/self/statm", "r");
        if (statm == nullptr || std::fscanf(statm, "%ld", &pages) != 1)
            _exit(3);
        std::fclose(statm);
        const rlim_t cap =
            static_cast<rlim_t>(pages * sysconf(_SC_PAGESIZE)) +
            (rlim_t{1} << 20);
        const rlimit limit{cap, cap};
        if (setrlimit(RLIMIT_AS, &limit) != 0)
            _exit(3);
        try {
            std::thread probe([] {});
            probe.join();
            _exit(2);
        } catch (const std::system_error &) {
        }
        const ParallelRunner runner(4);
        runner.forEachIndex(visits.size(),
                            [&](std::size_t i) { ++visits[i]; });
        for (const auto &v : visits)
            if (v.load() != 1)
                _exit(1);
        _exit(0);
    };
    EXPECT_EXIT(capThenFanOut(), testing::ExitedWithCode(0), "");
}

TEST(Exec, ParseThreadsSpecAcceptsSaneValues)
{
    auto parse = [](const char *spec) {
        unsigned threads = 9999;
        std::string error;
        EXPECT_TRUE(parseThreadsSpec(spec, "SBN_THREADS", threads, error))
            << error;
        return threads;
    };
    EXPECT_EQ(parse("1"), 1u);
    EXPECT_EQ(parse("16"), 16u);
    EXPECT_EQ(parse("4096"), 4096u);
    EXPECT_EQ(parse(" 8 "), 8u);
    EXPECT_EQ(parse("0"), 0u); // 0 = all hardware threads
}

/** parseThreadsSpec's message for @p spec, or "" when it accepts. */
std::string
threadsError(const char *spec, const char *source = "SBN_THREADS")
{
    unsigned threads = 0;
    std::string error;
    return parseThreadsSpec(spec, source, threads, error) ? "" : error;
}

TEST(Exec, ParseThreadsSpecRejectsGarbageLoudly)
{
    // A typo in SBN_THREADS must fail fast with a clear message, not
    // silently fall back to serial execution.
    EXPECT_TRUE(errorMatches(threadsError(""), "empty value"));
    EXPECT_TRUE(errorMatches(threadsError("   "), "empty value"));
    EXPECT_TRUE(errorMatches(threadsError("four"), "not a number"));
    EXPECT_TRUE(errorMatches(threadsError("8x"), "not a number"));
    EXPECT_TRUE(errorMatches(threadsError("2.5"), "not a number"));
    EXPECT_TRUE(errorMatches(threadsError("-4"), "negative"));
    EXPECT_TRUE(errorMatches(threadsError("5000"), "out of range"));
    EXPECT_TRUE(errorMatches(threadsError("99999999999999999999"),
                             "out of range"));
    // Every message names where the value came from.
    EXPECT_TRUE(
        errorMatches(threadsError("four"), "SBN_THREADS: 'four' is not"));
    EXPECT_TRUE(errorMatches(threadsError("", "--threads"),
                             "--threads: empty value"));

    // The environment variable is read once, when a default thread
    // count is first needed, and a malformed one is fatal there. The
    // statement runs only in the death test's re-executed child,
    // whose cached default is still unread.
    EXPECT_DEATH(
        {
            ::setenv("SBN_THREADS", "four", 1);
            (void)defaultExecThreads();
        },
        "SBN_THREADS: 'four' is not a number");
}

} // namespace
} // namespace sbn
