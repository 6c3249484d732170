/**
 * @file
 * Unit tests for the statistics package: accumulator moments, merge,
 * Student-t intervals, replication rounds and the histogram.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/replication.hh"
#include "util/random.hh"

namespace sbn {
namespace {

TEST(Accumulator, EmptyDefaults)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_TRUE(std::isinf(a.confidenceHalfWidth()));
}

TEST(Accumulator, KnownMoments)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.add(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    // Sample variance with Bessel correction: sum sq dev = 32, /7.
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.sum(), 40.0, 1e-12);
}

TEST(Accumulator, MergeMatchesSequential)
{
    RandomGenerator rng(99);
    Accumulator whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal() * 10.0 - 3.0;
        whole.add(v);
        (i < 400 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty)
{
    Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(StudentT, TableValues)
{
    EXPECT_NEAR(studentTQuantile(1, 0.95), 12.706, 1e-3);
    EXPECT_NEAR(studentTQuantile(4, 0.95), 2.776, 1e-3);
    EXPECT_NEAR(studentTQuantile(10, 0.90), 1.812, 1e-3);
    EXPECT_NEAR(studentTQuantile(30, 0.99), 2.750, 1e-3);
    EXPECT_NEAR(studentTQuantile(100000, 0.95), 1.960, 1e-3);
}

TEST(StudentT, DecreasesWithDof)
{
    for (double level : {0.90, 0.95, 0.99}) {
        double prev = studentTQuantile(1, level);
        for (std::uint64_t dof : {2u, 5u, 10u, 30u, 50u, 200u}) {
            const double cur = studentTQuantile(dof, level);
            EXPECT_LE(cur, prev) << "dof=" << dof << " level=" << level;
            prev = cur;
        }
    }
}

TEST(Estimate, CoversItsMean)
{
    Estimate e;
    e.mean = 5.0;
    e.halfWidth = 0.5;
    EXPECT_TRUE(e.covers(5.4));
    EXPECT_TRUE(e.covers(4.6));
    EXPECT_FALSE(e.covers(5.6));
    EXPECT_TRUE(e.covers(5.6, 0.2));
    EXPECT_DOUBLE_EQ(e.lower(), 4.5);
    EXPECT_DOUBLE_EQ(e.upper(), 5.5);
}

TEST(Histogram, MeanTracksAllSamples)
{
    // Underflow, in-range and overflow samples all count toward the
    // exact running mean.
    Histogram h;
    h.add(0);
    h.add(7);
    h.add(Histogram::kHi + 5);
    EXPECT_DOUBLE_EQ(h.mean(), (7.0 + 1048581.0) / 3.0);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h;
    RandomGenerator rng(123);
    for (int i = 0; i < 10000; ++i)
        h.add(1 + rng.uniformInt(100));
    const double q25 = h.quantile(0.25);
    const double q50 = h.quantile(0.50);
    const double q90 = h.quantile(0.90);
    EXPECT_LE(q25, q50);
    EXPECT_LE(q50, q90);
    // The median of U{1..100} is about 50.5; the quantile is the upper
    // edge of its bin, at most one bin ratio 2^(1/6) above it.
    EXPECT_GE(q50, 50.0);
    EXPECT_LE(q50, 51.0 * std::exp2(1.0 / 6.0));
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.add(0);
    h.add(1);
    h.add(Histogram::kHi);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.binCount(0), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_TRUE(std::isnan(h.maxSample()));
}

TEST(Histogram, LogScaleBinsArePowers)
{
    // Every sixth edge is an octave edge, and it is the exact power of
    // two, so a quantile there reads 2^k, not 8.000000000000002.
    for (std::size_t k = 0; k <= Histogram::kOctaves; ++k)
        EXPECT_EQ(Histogram::binLow(6 * k),
                  static_cast<double>(std::uint64_t{1} << k))
            << "octave " << k;

    Histogram h;
    h.add(1);                   // bin 0, inclusive lower edge
    h.add(2);                   // bin 6 opens at 2
    h.add(3);                   // 2^9 <= 3^6 = 729 < 2^10: bin 9
    h.add(512);                 // bin 54 opens at 2^9
    h.add(Histogram::kHi - 1);  // last bin
    h.add(0);                   // underflow
    h.add(Histogram::kHi);      // hi is exclusive -> overflow

    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(6), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.binCount(54), 1u);
    EXPECT_EQ(h.binCount(Histogram::kBins - 1), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    // The third-smallest sample, 2, is alone in bin 6, whose upper
    // edge is 2^(7/6).
    EXPECT_EQ(h.quantile(0.4), Histogram::binLow(7));
}

TEST(Histogram, EveryIntegerLandsInItsExactBin)
{
    // Bin i holds exactly the integers s with 2^i <= s^6 < 2^(i+1).
    // Check all of [1, 2^20) in 128-bit integers, against the bin add()
    // actually incremented.
    using u128 = unsigned __int128;
    auto pow2 = [](unsigned e) { return static_cast<u128>(1) << e; };
    Histogram h;
    std::uint64_t misfiled = 0;
    std::string first;
    for (std::uint64_t s = 1; s < Histogram::kHi; ++s) {
        const u128 s6 = static_cast<u128>(s) * s * s * s * s * s;
        unsigned bin = 6 * (63 - static_cast<unsigned>(
                                     __builtin_clzll(s)));
        while (s6 >= pow2(bin + 1))
            ++bin;
        ASSERT_TRUE(pow2(bin) <= s6 && s6 < pow2(bin + 1));
        const std::uint64_t before = h.binCount(bin);
        h.add(s);
        if (h.binCount(bin) != before + 1 && misfiled++ == 0)
            first = std::to_string(s) + " not in bin " +
                    std::to_string(bin);
    }
    EXPECT_EQ(misfiled, 0u) << "first: " << first;
    EXPECT_EQ(h.count(), Histogram::kHi - 1);
    EXPECT_EQ(h.underflow() + h.overflow(), 0u);

    // The powers of two that floating-point binning, floor((ln s -
    // ln 1) / (ln 2^20 / 120)), files one bin low: 2^k opens bin 6k.
    for (std::uint64_t s : {2, 4, 8, 16, 64, 128, 256, 4096, 8192, 16384,
                            32768, 65536, 131072}) {
        Histogram one;
        one.add(s);
        const auto k = static_cast<std::size_t>(
            63 - __builtin_clzll(s));
        EXPECT_EQ(one.binCount(6 * k), 1u) << "sample " << s;
    }

    Histogram edges;
    edges.add(0);
    edges.add(Histogram::kHi);
    EXPECT_EQ(edges.underflow(), 1u);
    EXPECT_EQ(edges.overflow(), 1u);
}

TEST(Histogram, QuantileOfEmptyIsNaN)
{
    const Histogram h;
    EXPECT_TRUE(std::isnan(h.quantile(0.0)));
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(1.0)));
    EXPECT_TRUE(std::isnan(h.maxSample()));
}

TEST(Histogram, QuantileSaturatesAtRangeEnds)
{
    // All mass in overflow: every quantile resolves to 2^20 (the
    // histogram cannot see past its range). All mass in underflow
    // resolves to 1 symmetrically.
    Histogram over;
    over.add(Histogram::kHi + 50);
    over.add(2 * Histogram::kHi);
    EXPECT_EQ(over.quantile(0.5), 1048576.0);
    EXPECT_EQ(over.quantile(1.0), 1048576.0);

    Histogram under;
    under.add(0);
    under.add(0);
    EXPECT_EQ(under.quantile(0.5), 1.0);
    EXPECT_EQ(under.quantile(1.0), 1.0);
}

TEST(Histogram, MergeMatchesSequentialFill)
{
    Histogram whole;
    Histogram left;
    Histogram right;

    RandomGenerator rng(77);
    for (int i = 0; i < 2000; ++i) {
        // Spans underflow (0), every octave and overflow (>= 2^20).
        const std::uint64_t v = rng.uniformInt(2 * Histogram::kHi);
        whole.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.underflow(), whole.underflow());
    EXPECT_EQ(left.overflow(), whole.overflow());
    EXPECT_EQ(left.maxSample(), whole.maxSample());
    // Byte-identical flat JSON is the contract sharded runs rely on.
    EXPECT_EQ(left.renderFlatJson(), whole.renderFlatJson());
}

TEST(Histogram, MergeWithEmptyKeepsStats)
{
    Histogram h;
    h.add(3);
    h.add(7);
    const std::string before = h.renderFlatJson();

    const Histogram empty;
    h.merge(empty);
    EXPECT_EQ(h.renderFlatJson(), before);
    EXPECT_EQ(h.maxSample(), 7.0);

    Histogram fresh;
    fresh.merge(h);
    EXPECT_EQ(fresh.renderFlatJson(), before);
    EXPECT_EQ(fresh.maxSample(), 7.0);
}

TEST(Histogram, FlatJsonIsInsertionOrderInvariant)
{
    Histogram forward;
    Histogram backward;
    std::vector<std::uint64_t> samples;
    RandomGenerator rng(5);
    for (int i = 0; i < 500; ++i)
        samples.push_back(1 + rng.uniformInt(2000000));
    for (std::uint64_t v : samples)
        forward.add(v);
    for (auto it = samples.rbegin(); it != samples.rend(); ++it)
        backward.add(*it);
    EXPECT_EQ(forward.renderFlatJson(), backward.renderFlatJson());

    // Sparse counts: empty bins are omitted, so a small histogram
    // renders a short, predictable line. 4 opens bin 12.
    Histogram tiny;
    tiny.add(0);
    tiny.add(1);
    tiny.add(4);
    tiny.add(4);
    tiny.add(Histogram::kHi + 3);
    EXPECT_EQ(tiny.renderFlatJson(),
              "{\"type\":\"sbn.hist.v1\",\"scale\":\"log\","
              "\"lo\":1,\"hi\":1048576,\"bins\":120,\"count\":5,"
              "\"underflow\":1,\"overflow\":1,"
              "\"sum\":1048588,\"counts\":\"0:1 12:2\"}");
}

/** A fixed-count run: one extension of @p rounds, mapped serially. */
template <typename Experiment>
Estimate
replicateSerially(ReplicationRounds &rounds, unsigned replications,
                  Experiment experiment)
{
    std::vector<double> values;
    for (std::uint64_t seed : rounds.seedsForExtension(replications))
        values.push_back(experiment(seed));
    rounds.accept(values);
    return rounds.estimate();
}

TEST(Replication, DeterministicSeedDerivation)
{
    std::vector<std::uint64_t> seen_a, seen_b;
    ReplicationRounds rounds_a(42), rounds_b(42);
    auto run_a = replicateSerially(rounds_a, 5, [&](std::uint64_t s) {
        seen_a.push_back(s);
        return static_cast<double>(s % 100);
    });
    auto run_b = replicateSerially(rounds_b, 5, [&](std::uint64_t s) {
        seen_b.push_back(s);
        return static_cast<double>(s % 100);
    });
    EXPECT_EQ(seen_a, seen_b);
    EXPECT_DOUBLE_EQ(run_a.mean, run_b.mean);
    EXPECT_EQ(run_a.samples, 5u);
}

TEST(Replication, IntervalCoversTrueMean)
{
    // Experiment returns seed-dependent noise around 10.
    ReplicationRounds rounds(7);
    auto est = replicateSerially(rounds, 10, [](std::uint64_t s) {
        RandomGenerator rng(s);
        double acc = 0.0;
        for (int i = 0; i < 1000; ++i)
            acc += rng.uniformReal();
        return 10.0 + (acc / 1000.0 - 0.5);
    });
    EXPECT_TRUE(est.covers(10.0, 0.02));
    EXPECT_GT(est.halfWidth, 0.0);
}

TEST(ReplicationRounds, SeedStreamIgnoresRoundBoundaries)
{
    // Growing in rounds must hand out exactly the one-shot derivation
    // stream: replication i gets the same seed however the run grew.
    RandomGenerator seeder(31337);
    std::vector<std::uint64_t> expected(11);
    for (auto &s : expected)
        s = seeder.deriveSeed();

    ReplicationRounds rounds(31337);
    std::vector<std::uint64_t> streamed;
    for (unsigned target : {3u, 3u, 7u, 11u}) { // repeat = no-op
        const auto seeds = rounds.seedsForExtension(target);
        streamed.insert(streamed.end(), seeds.begin(), seeds.end());
        rounds.accept(std::vector<double>(seeds.size(), 1.0));
        EXPECT_EQ(rounds.completed(), target);
    }
    EXPECT_EQ(streamed, expected);
}

TEST(ReplicationRounds, RoundGrowthMatchesOneShotAccumulation)
{
    const auto experiment = [](std::uint64_t s) {
        RandomGenerator rng(s);
        return rng.uniformReal() * 5.0 - 1.0;
    };

    // One-shot reference over 10 replications.
    RandomGenerator seeder(99);
    Accumulator reference;
    for (int i = 0; i < 10; ++i)
        reference.add(experiment(seeder.deriveSeed()));

    // The same 10 replications grown in three rounds.
    ReplicationRounds rounds(99, 0.95);
    for (unsigned target : {2u, 5u, 10u}) {
        std::vector<double> values;
        for (std::uint64_t seed : rounds.seedsForExtension(target))
            values.push_back(experiment(seed));
        rounds.accept(values);
    }

    const Estimate est = rounds.estimate();
    EXPECT_EQ(est.samples, 10u);
    EXPECT_EQ(est.mean, reference.mean());
    EXPECT_EQ(est.halfWidth, reference.confidenceHalfWidth(0.95));
}

TEST(ReplicationRounds, FewerThanTwoReplicationsHaveNoInterval)
{
    ReplicationRounds rounds(5);
    EXPECT_EQ(rounds.completed(), 0u);
    EXPECT_EQ(rounds.estimate().halfWidth, 0.0);

    const auto seeds = rounds.seedsForExtension(1);
    ASSERT_EQ(seeds.size(), 1u);
    rounds.accept({4.25});
    const Estimate est = rounds.estimate();
    EXPECT_EQ(est.samples, 1u);
    EXPECT_EQ(est.mean, 4.25);
    EXPECT_EQ(est.halfWidth, 0.0);
}

} // namespace
} // namespace sbn
