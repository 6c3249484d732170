/**
 * @file
 * Unit tests for the RNG: determinism, range correctness and first
 * moments of every distribution the simulators draw from, and the
 * counter stream's geometric inversion.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/random.hh"

namespace sbn {
namespace {

TEST(Random, DeterministicForFixedSeed)
{
    RandomGenerator a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    RandomGenerator a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Random, ReseedRestartsTrajectory)
{
    RandomGenerator a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Random, UniformIntStaysInRange)
{
    RandomGenerator rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Random, UniformIntIsRoughlyUniform)
{
    RandomGenerator rng(5);
    const int bound = 8;
    const int draws = 80000;
    std::vector<int> counts(bound, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[rng.uniformInt(bound)];
    const double expect = static_cast<double>(draws) / bound;
    for (int c : counts)
        EXPECT_NEAR(c, expect, 5.0 * std::sqrt(expect));
}

TEST(Random, UniformRangeInclusive)
{
    RandomGenerator rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Random, UniformRealMoments)
{
    RandomGenerator rng(13);
    const int draws = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < draws; ++i) {
        const double u = rng.uniformReal();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
        sq += u * u;
    }
    EXPECT_NEAR(sum / draws, 0.5, 0.005);
    EXPECT_NEAR(sq / draws, 1.0 / 3.0, 0.005);
}

TEST(Random, BernoulliMean)
{
    RandomGenerator rng(17);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
        int hits = 0;
        const int draws = 50000;
        for (int i = 0; i < draws; ++i)
            hits += rng.bernoulli(p);
        EXPECT_NEAR(static_cast<double>(hits) / draws, p, 0.01)
            << "p=" << p;
    }
}

TEST(Random, ExponentialMean)
{
    RandomGenerator rng(19);
    const double mean = 7.5;
    double sum = 0.0;
    const int draws = 200000;
    for (int i = 0; i < draws; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / draws, mean, 0.1);
}

TEST(Random, GeometricMean)
{
    RandomGenerator rng(23);
    const double p = 0.3;
    double sum = 0.0;
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // E[failures before success] = (1-p)/p.
    EXPECT_NEAR(sum / draws, (1.0 - p) / p, 0.05);
    EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Random, ShuffleIsPermutation)
{
    RandomGenerator rng(29);
    std::vector<std::size_t> v(10);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = i;
    rng.shuffle(v);
    std::set<std::size_t> seen(v.begin(), v.end());
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Random, DeriveSeedDeterministic)
{
    RandomGenerator a(31), b(31);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.deriveSeed(), b.deriveSeed());
}

// The next four tests pin *stream position* semantics: geometric(p)
// consumes exactly one Bernoulli per failure plus one for the
// success, and degenerate Bernoulli probabilities consume nothing.
// The cycle-skipping kernel's think calendar replays per-cycle
// Bernoulli draws in classic event order (it deliberately does NOT
// batch them through geometric(), which would reorder the shared
// stream across processors -- see src/core/system.hh); these tests
// guard the draw-count contract that makes the two framings
// equivalent for a lone thinker and keep geometric() honest for any
// future consumer.

TEST(Random, GeometricMatchesManualBernoulliLoop)
{
    for (double p : {0.15, 0.5, 0.85}) {
        RandomGenerator batched(421), manual(421);
        for (int trial = 0; trial < 200; ++trial) {
            const std::uint64_t failures = batched.geometric(p);
            std::uint64_t expected = 0;
            while (!manual.bernoulli(p))
                ++expected;
            EXPECT_EQ(failures, expected) << "p=" << p;
        }
        // Both generators must sit at the same stream position.
        EXPECT_EQ(batched.next(), manual.next()) << "p=" << p;
    }
}

TEST(Random, GeometricConsumesOneDrawPerTrial)
{
    RandomGenerator counted(77), reference(77);
    std::uint64_t draws = 0;
    for (int trial = 0; trial < 100; ++trial)
        draws += counted.geometric(0.25) + 1; // failures + the success
    for (std::uint64_t i = 0; i < draws; ++i)
        (void)reference.uniformReal(); // one next() per Bernoulli
    EXPECT_EQ(counted.next(), reference.next());
}

TEST(Random, GeometricCertainSuccessConsumesNothing)
{
    RandomGenerator a(99), b(99);
    EXPECT_EQ(a.geometric(1.0), 0u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DegenerateBernoulliConsumesNothing)
{
    RandomGenerator a(1234), b(1234);
    EXPECT_FALSE(a.bernoulli(0.0));
    EXPECT_FALSE(a.bernoulli(-1.0));
    EXPECT_TRUE(a.bernoulli(1.0));
    EXPECT_TRUE(a.bernoulli(2.0));
    EXPECT_EQ(a.next(), b.next());
}

TEST(CounterRng, CachedDenominatorDrawsMatchTheInversion)
{
    // FastStat computes log1p(-p) once per processor. The draws must
    // equal, value for value, the inversion floor(log(U) / log1p(-p))
    // evaluated afresh on a twin stream, and leave both streams at
    // the same position.
    for (double p : {1e-6, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999}) {
        CounterRng cached(0x5eed, 3), twin(0x5eed, 3);
        const double log1mp = std::log1p(-p);
        for (int i = 0; i < 100000; ++i) {
            const double u = 1.0 - twin.uniformReal();
            const double k = std::floor(std::log(u) / std::log1p(-p));
            const std::uint64_t expected =
                !(k > 0.0)       ? 0
                : k >= 0x1.0p62 ? std::uint64_t{1} << 62
                                : static_cast<std::uint64_t>(k);
            ASSERT_EQ(cached.geometric(p, log1mp), expected)
                << "p=" << p << " draw " << i;
        }
        EXPECT_EQ(cached.counter(), twin.counter()) << "p=" << p;
    }
    // Certain success draws nothing.
    CounterRng certain(0x5eed, 3);
    EXPECT_EQ(certain.geometric(1.0, std::log1p(-1.0)), 0u);
    EXPECT_EQ(certain.counter(), 0u);
}

} // namespace
} // namespace sbn
